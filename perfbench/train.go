package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"caltrain/internal/attest"
	"caltrain/internal/core"
	"caltrain/internal/dataset"
	"caltrain/internal/fingerprint"
	"caltrain/internal/nn"
	"caltrain/internal/obs"
	"caltrain/internal/partition"
	"caltrain/internal/seal"
	"caltrain/internal/sgx"
	"caltrain/internal/tensor"
)

// trainSize fixes the train workload's inputs and work.
type trainSize struct {
	perClass     int // SynthCIFAR images per class, 10 classes
	participants int
	epochs       int // measured passes over the ingested records
	setups       int // session set-ups whose median is setup_s
	pairs        int // split-2/split-0 TrainBatch pairs for partition.overhead_ratio
}

// trainFull is the benchmark's train workload: the paper's Table I
// network at 1/8 filter scale with the first two layers in the enclave,
// batch 32, over 1,000 sealed images from four participants.
var trainFull = trainSize{perClass: 100, participants: 4, epochs: 2, setups: 5, pairs: 4}

// The train workload drives internal/core directly: the facade's
// Session.AddParticipant, TrainEpoch and Fingerprint are thin wrappers
// over the same calls, and only TrainStep exposes the per-step time a
// latency percentile needs.
type trainSession struct {
	cfg          core.SessionConfig
	authority    *attest.Authority
	authorityPub []byte
	server       *core.TrainingServer
	accepted     int
	addTimes     []float64 // per participant, seconds
}

func trainConfig(seed uint64) core.SessionConfig {
	aug := dataset.DefaultAugmentation()
	return core.SessionConfig{
		Model:     nn.TableI(8),
		Split:     2,
		BatchSize: 32,
		SGD:       nn.DefaultSGD(),
		Augment:   &aug,
		Seed:      seed,
	}
}

// newTrainSession attests, provisions and ingests every participant's
// sealed records into a fresh training enclave.
func newTrainSession(cfg core.SessionConfig, ps []*core.Participant) (*trainSession, error) {
	authority, err := attest.NewAuthority()
	if err != nil {
		return nil, err
	}
	pub, err := authority.PublicKey()
	if err != nil {
		return nil, err
	}
	server, err := core.NewTrainingServer(cfg, authority)
	if err != nil {
		return nil, err
	}
	s := &trainSession{cfg: cfg, authority: authority, authorityPub: pub, server: server}
	expected, err := core.ExpectedTrainingMeasurement(cfg)
	if err != nil {
		return nil, err
	}
	for _, p := range ps {
		t := time.Now()
		if err := p.Provision(server, pub, expected); err != nil {
			return nil, fmt.Errorf("provision %s: %w", p.ID, err)
		}
		batch, err := p.SealRecords()
		if err != nil {
			return nil, err
		}
		acc, rej, err := server.Ingest(batch)
		if err != nil {
			return nil, err
		}
		if rej != 0 {
			return nil, fmt.Errorf("enclave rejected %d of %s's records", rej, p.ID)
		}
		s.accepted += acc
		s.addTimes = append(s.addTimes, time.Since(t).Seconds())
	}
	return s, nil
}

// fingerprint runs the fingerprinting stage: a fingerprint enclave
// receives the model over local attestation, every participant attests
// it and re-submits sealed records, and the linkage database comes out.
func (s *trainSession) fingerprint(ps []*core.Participant) (*fingerprint.DB, error) {
	fps, err := core.NewFingerprintService(s.server.Device(), s.cfg.Model, s.authority, s.cfg.EPCSize)
	if err != nil {
		return nil, err
	}
	blob, err := s.server.ExportModelFor(fps.Measurement())
	if err != nil {
		return nil, err
	}
	if err := fps.LoadModel(blob, s.server.Measurement()); err != nil {
		return nil, err
	}
	expected, err := core.ExpectedFingerprintMeasurement(s.cfg.Model)
	if err != nil {
		return nil, err
	}
	for _, p := range ps {
		if err := p.Provision(fps, s.authorityPub, expected); err != nil {
			return nil, fmt.Errorf("fingerprint provision %s: %w", p.ID, err)
		}
		batch, err := p.SealRecords()
		if err != nil {
			return nil, err
		}
		if _, _, err := fps.Fingerprint(batch); err != nil {
			return nil, err
		}
	}
	return fps.ExportDB()
}

func runTrain(e *env, sz trainSize) (*report, error) {
	rep := newReport()
	data := dataset.SynthCIFAR(dataset.Options{Classes: 10, PerClass: sz.perClass, Seed: e.seed})
	var ps []*core.Participant
	for i, d := range data.PartitionAmong(sz.participants) {
		ps = append(ps, core.NewParticipant(fmt.Sprintf("participant-%d", i), d, e.seed*16+uint64(i)))
	}
	cfg := trainConfig(e.seed)

	var sess *trainSession
	var setupS, addS []float64
	for i := 0; i < sz.setups; i++ {
		t := time.Now()
		s, err := newTrainSession(cfg, ps)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t).Seconds())
		addS = append(addS, s.addTimes...)
		sess = s
	}
	if !e.traced {
		rep.set("setup_s", median(setupS), "s")
		rep.set("heap_mb", heapMB(), "MiB")
	}

	// Measured phase: whole epochs of partitioned training steps, each
	// with the hypervisor's steal over it; the metrics use the quiet
	// steps, as the serving workloads use quiet rounds. In the traced run
	// every other step is wrapped in a span, so the two halves give the
	// tracing overhead on the same work.
	enc := sess.server.Enclave()
	before := enc.Stats()
	var stepMS, stepSteal, stepImages, tracedMS, plainMS, epochS, epochLoss []float64
	steps := 0
	for ep := 0; ep < sz.epochs; ep++ {
		te := time.Now()
		var sum float64
		n := sess.server.StepsPerEpoch()
		for i := 0; i < n; i++ {
			withSpan := e.traced && steps%2 == 1
			var sp *obs.Span
			if withSpan {
				tr := obs.NewTrace(obs.NewRequestID())
				tr.SetSampled(true)
				_, sp = obs.StartSpan(obs.WithTrace(context.Background(), tr), "core.train_step")
			}
			steal := stealMeter()
			t := time.Now()
			loss, err := sess.server.TrainStep()
			d := time.Since(t)
			pct, _ := steal()
			sp.End()
			if err != nil {
				return nil, fmt.Errorf("train step %d: %w", steps, err)
			}
			rep.attempted++
			if math.IsNaN(loss) || math.IsInf(loss, 0) {
				rep.fail(1, "step %d loss is %v", steps, loss)
			}
			sum += loss
			stepMS = append(stepMS, ms(d))
			stepSteal = append(stepSteal, pct)
			stepImages = append(stepImages, float64(min(cfg.BatchSize, sess.accepted-i*cfg.BatchSize)))
			if withSpan {
				tracedMS = append(tracedMS, ms(d))
			} else {
				plainMS = append(plainMS, ms(d))
			}
			steps++
		}
		epochS = append(epochS, time.Since(te).Seconds())
		epochLoss = append(epochLoss, sum/float64(n))
	}
	after := enc.Stats()
	if first, last := epochLoss[0], epochLoss[len(epochLoss)-1]; !(last < first) {
		rep.fail(0, "mean loss went from %.4f in the first epoch to %.4f in the last", first, last)
	}

	tf := time.Now()
	db, err := sess.fingerprint(ps)
	if err != nil {
		return nil, fmt.Errorf("fingerprint: %w", err)
	}
	fpTime := time.Since(tf)
	rep.attempted += sess.accepted
	checkLinkages(rep, db, ps, sess.accepted)

	if !e.traced {
		var lat []float64
		var images, secs float64
		for _, i := range quietSet(stepSteal) {
			lat = append(lat, stepMS[i])
			images += stepImages[i]
			secs += stepMS[i] / 1000
		}
		rep.set("latency_p50_ms", quantile(lat, 0.5), "ms")
		rep.set("latency_p90_ms", quantile(lat, 0.9), "ms")
		rep.set("throughput_per_s", images/secs, "1/s")
		rep.set("train_images_per_s", images/secs, "img/s")
		rep.set("quiet_step_share", float64(len(lat))/float64(steps), "ratio")
		rep.set("fingerprint_images_per_s", float64(sess.accepted)/fpTime.Seconds(), "img/s")
		rep.set("train_steps", float64(steps), "count")
		for i, l := range epochLoss {
			rep.set(fmt.Sprintf("epoch_%d_loss", i+1), l, "loss")
		}
		return rep, nil
	}

	rep.set("core.add_participant_s", median(addS), "s")
	rep.set("core.epoch_s", median(epochS), "s")
	rep.set("core.fingerprint_s", fpTime.Seconds(), "s")
	rep.set("sgx.ecalls_per_step", float64(after.Calls-before.Calls)/float64(steps), "count")
	rep.set("sgx.page_faults_per_step", float64(after.PageFaults-before.PageFaults)/float64(steps), "count")
	if len(tracedMS) > 0 && len(plainMS) > 0 {
		rep.set("trace.overhead_pct", 100*(median(tracedMS)/median(plainMS)-1), "%")
	}
	// No serving layer runs here: no server span exists to join.
	rep.set("trace.server_spans", 0, "count")
	return rep, enclaveLayerStats(rep, cfg, data, e.seed, sz.pairs)
}

// checkLinkages expects exactly one linkage per accepted record,
// carrying its contributor's ID and the record's content hash.
func checkLinkages(rep *report, db *fingerprint.DB, ps []*core.Participant, accepted int) {
	if db.Len() != accepted {
		rep.fail(abs(db.Len()-accepted), "%d linkages for %d accepted records", db.Len(), accepted)
	}
	type key struct {
		src  string
		hash [32]byte
	}
	count := make(map[key]int, db.Len())
	for i := 0; i < db.Len(); i++ {
		l := db.Entry(i)
		count[key{l.S, l.H}]++
	}
	bad := 0
	for _, p := range ps {
		for _, r := range p.Data().Records {
			if count[key{p.ID, seal.ContentHash(r.Image)}] != 1 {
				bad++
			}
		}
	}
	if bad > 0 {
		rep.fail(bad, "%d records lack exactly one linkage with their contributor and content hash", bad)
	}
}

func abs(x int) int { return max(x, -x) }

// enclaveLayerStats measures the layers under a training step on the
// workload's own image size and network: sealing, one enclave crossing
// of the FrontNet's output size, the split-2 over split-0 step time
// (Fig. 6's overhead) and the first convolution's GEMM in both compute
// modes.
func enclaveLayerStats(rep *report, cfg core.SessionConfig, data *dataset.Dataset, seed uint64, pairs int) error {
	img := data.Records[0].Image
	key := seal.NewKey(rand.New(rand.NewPCG(seed, 4)))
	nonces := rand.New(rand.NewPCG(seed, 5))
	var mbps []float64
	for round := 0; round < 5; round++ {
		t := time.Now()
		n := 0
		for time.Since(t) < 40*time.Millisecond {
			if _, err := seal.SealRecord(key, "participant-0", uint32(n), 0, img, nonces); err != nil {
				return err
			}
			n++
		}
		mbps = append(mbps, float64(4*len(img)*n)/time.Since(t).Seconds()/1e6)
	}
	rep.set("seal.seal_mb_per_s", median(mbps), "MB/s")

	in, labels := data.Batch(0, cfg.BatchSize)
	dev := sgx.NewDevice(seed)
	trainers := make([]*partition.Trainer, 2)
	for i, split := range []int{cfg.Split, 0} {
		net, err := nn.Build(cfg.Model, rand.New(rand.NewPCG(seed, 6)))
		if err != nil {
			return err
		}
		enc := dev.CreateEnclave(sgx.Config{Name: fmt.Sprintf("perfbench-split-%d", split)})
		tr, err := partition.NewTrainer(enc, net, split, cfg.SGD, rand.New(rand.NewPCG(seed, 7)))
		if err != nil {
			return err
		}
		if _, err := enc.Init(); err != nil {
			return err
		}
		trainers[i] = tr
	}
	var split, plain []float64
	for i := 0; i < pairs; i++ {
		for j, tr := range trainers {
			t := time.Now()
			if _, err := tr.TrainBatch(in, labels); err != nil {
				return err
			}
			if j == 0 {
				split = append(split, time.Since(t).Seconds())
			} else {
				plain = append(plain, time.Since(t).Seconds())
			}
		}
	}
	rep.set("partition.overhead_ratio", median(split)/median(plain), "ratio")

	ir := partition.EncodeTensor(trainers[0].FrontForward(in))
	enc := dev.CreateEnclave(sgx.Config{Name: "perfbench-crossing"})
	if err := enc.RegisterECall("echo", func(b []byte) ([]byte, error) { return b, nil }); err != nil {
		return err
	}
	if _, err := enc.Init(); err != nil {
		return err
	}
	var cross []float64
	for i := 0; i < 30; i++ {
		t := time.Now()
		if _, err := enc.Call("echo", ir); err != nil {
			return err
		}
		cross = append(cross, us(time.Since(t)))
	}
	rep.set("sgx.crossing_us", median(cross), "us")

	// The first convolution as im2col GEMM: filters × (C·k·k) by
	// (C·k·k) × (H·W).
	l0 := cfg.Model.Layers[0]
	m, k, n := l0.Filters, cfg.Model.InC*l0.Size*l0.Size, cfg.Model.InH*cfg.Model.InW
	rng := rand.New(rand.NewPCG(seed, 8))
	a, b, c := tensor.New(m, k), tensor.New(k, n), tensor.New(m, n)
	for _, t := range []*tensor.Tensor{a, b} {
		for i := range t.Data() {
			t.Data()[i] = float32(rng.NormFloat64())
		}
	}
	for _, mode := range []struct {
		name string
		mode tensor.MatMulMode
	}{{"tensor.enclave_gflops", tensor.EnclaveScalar}, {"tensor.host_gflops", tensor.Accelerated}} {
		var gf []float64
		for round := 0; round < 5; round++ {
			t := time.Now()
			calls := 0
			for time.Since(t) < 40*time.Millisecond {
				tensor.MatMul(mode.mode, a, b, c)
				calls++
			}
			gf = append(gf, 2*float64(m*k*n*calls)/time.Since(t).Seconds()/1e9)
		}
		rep.set(mode.name, median(gf), "GFLOP/s")
	}
	return nil
}
