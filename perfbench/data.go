package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"

	"caltrain/internal/fingerprint"
	"caltrain/internal/index"
)

// Linkage data with the two-level structure of §VI-D: each label has its
// own modes, and inside a mode linkages come in groups of near-duplicates
// (the duplicated or poisoned clusters an investigator traces back), each
// group attributed to one contributor. TestIVFPQRecall uses the same
// structure.
const (
	dim          = 64
	modesPerLbl  = 16
	modeSigma    = 0.15
	groupSize    = 12
	groupJitter  = 0.05
	contributors = 7
)

// groupSet is the generated ground truth: per label, its group centres
// and each group's contributor.
type groupSet struct {
	labels  int
	centres [][]fingerprint.Fingerprint // [label][group]
	owner   [][]int                     // [label][group] contributor
}

// linkageDB generates perLabel linkages for each of labels labels and
// returns the database with the groups it was drawn from. Every entry
// gets a unique content hash, so a served match identifies its entry
// even across shards, whose indices are shard-local.
func linkageDB(rng *rand.Rand, labels, perLabel int) (*fingerprint.DB, *groupSet, error) {
	db, err := fingerprint.NewDB(dim)
	if err != nil {
		return nil, nil, err
	}
	gs := &groupSet{labels: labels}
	ngroups := (perLabel + groupSize - 1) / groupSize
	for y := 0; y < labels; y++ {
		gs.centres = append(gs.centres, index.SynthFingerprints(rng, ngroups, dim, modesPerLbl, modeSigma))
		owner := make([]int, ngroups)
		for g := range owner {
			owner[g] = rng.IntN(contributors)
		}
		gs.owner = append(gs.owner, owner)
	}
	// Entries are interleaved across labels, as linkages of a real
	// training run are.
	for i := 0; i < perLabel; i++ {
		for y := 0; y < labels; y++ {
			g := i % ngroups
			l := gs.member(rng, y, g)
			l.H = entryHash(uint64(db.Len()))
			if err := db.Add(l); err != nil {
				return nil, nil, err
			}
		}
	}
	return db, gs, nil
}

// member draws a fresh linkage of group g of label y.
func (gs *groupSet) member(rng *rand.Rand, y, g int) fingerprint.Linkage {
	c := gs.centres[y][g]
	f := make(fingerprint.Fingerprint, dim)
	var s float64
	for j := range f {
		f[j] = c[j] + float32(groupJitter*rng.NormFloat64())
		s += float64(f[j]) * float64(f[j])
	}
	inv := float32(1 / math.Sqrt(s))
	for j := range f {
		f[j] *= inv
	}
	return fingerprint.Linkage{F: f, Y: y, S: fmt.Sprintf("contributor-%d", gs.owner[y][g])}
}

// fresh draws a never-seen member of a random existing group of label y.
func (gs *groupSet) fresh(rng *rand.Rand, y int) fingerprint.Linkage {
	return gs.member(rng, y, rng.IntN(len(gs.centres[y])))
}

// entryHash is a unique content digest for the i-th generated linkage.
func entryHash(i uint64) [32]byte {
	return sha256.Sum256(binary.LittleEndian.AppendUint64([]byte("perfbench-linkage"), i))
}
