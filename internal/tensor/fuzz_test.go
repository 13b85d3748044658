package tensor

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzGEMMParity holds the three tiled products, in both modes, to their
// plain reference loops bit for bit (NaNs as a class) on fuzz-chosen
// shapes and values. m and n run 1..40 and k 1..300, so every tile
// remainder, the unrolled loop's tail and a second packed panel are all
// reached. A, B and C take their values in turn from the raw bytes, read
// as little-endian float32s, so NaN payloads, infinities, signed zeros and
// subnormals arise naturally. Seed inputs are checked in under
// testdata/fuzz/FuzzGEMMParity.
func FuzzGEMMParity(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, mb byte, k16 uint16, nb byte) {
		m, k, n := 1+int(mb)%40, 1+int(k16)%300, 1+int(nb)%40
		vals := make([]float32, len(data)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		next := 0
		checkGEMMParity(t, m, k, n, func(v []float32) {
			if len(vals) == 0 {
				return
			}
			for i := range v {
				v[i] = vals[next%len(vals)]
				next++
			}
		})
	})
}
