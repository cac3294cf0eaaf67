package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cache"
	"repro/internal/ec"
	"repro/internal/engine"
	"repro/internal/extent"
	"repro/internal/gf256"
)

// Probes time one layer alone, on in-memory inputs of the workload's
// block size, for a few tens of milliseconds each. They are ceilings,
// not end-to-end numbers: a layer's probe against the next layer up's
// probe is where a gap (ROADMAP's ~85x between the gf256 kernel and the
// engine's repair rate) is located before anything is optimised.

// probeFor repeats fn for about d and returns how long one call took.
func probeFor(d time.Duration, fn func()) time.Duration {
	fn() // first call pays for lazy tables and page faults
	start := time.Now()
	n := 0
	for time.Since(start) < d {
		fn()
		n++
	}
	return time.Since(start) / time.Duration(n)
}

func mbps(bytes int64, per time.Duration) float64 {
	return ratio(float64(bytes)/1e6, per.Seconds())
}

func randomShards(rng *rand.Rand, n int, size int64) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, size)
		rng.Read(out[i])
	}
	return out
}

func runProbes(e *env, quick bool, m metricSet) {
	d := 25 * time.Millisecond
	if quick {
		d = time.Millisecond
	}
	rng := rand.New(rand.NewSource(e.in.seed))
	size := e.sp.BlockSize
	code := e.plain
	k, total := code.DataShards(), code.TotalShards()

	// gf256: the fused multiply-accumulate and XOR kernels over k inputs.
	inputs := randomShards(rng, k, size)
	coeffs := make([]byte, k)
	for i := range coeffs {
		coeffs[i] = byte(i + 2)
	}
	out := make([]byte, size)
	m["gf256.muladd_mbps"] = mbps(int64(k)*size, probeFor(d, func() { gf256.MulAddSlices(coeffs, inputs, out) }))
	m["gf256.xorall_mbps"] = mbps(int64(k)*size, probeFor(d, func() { gf256.XorAllSlices(inputs, out) }))

	// core: encode one stripe; repair data shard 0 from memory.
	shards := append(randomShards(rng, k, size), make([][]byte, total-k)...)
	m["core.encode_mbps"] = mbps(int64(k)*size, probeFor(d, func() { _ = code.Encode(shards) }))
	fetch := func(req ec.ReadRequest) ([]byte, error) {
		return shards[req.Shard][req.Offset : req.Offset+req.Length], nil
	}
	m["core.repair_mbps"] = mbps(size, probeFor(d, func() { _, _ = code.ExecuteRepair(0, size, ec.AllAliveExcept(0), fetch) }))

	// engine: a batch of the same repair through RunRepairs, serial and
	// at full parallelism.
	jobs := make([]engine.RepairJob, 8)
	for i := range jobs {
		jobs[i] = engine.RepairJob{
			Code: code, Missing: []int{0}, ShardSize: size, Alive: ec.AllAliveExcept(0),
			FetchInto: func(req ec.ReadRequest, dst []byte) error {
				copy(dst, shards[req.Shard][req.Offset:req.Offset+req.Length])
				return nil
			},
		}
	}
	for name, par := range map[string]int{"engine.repair_mbps_par1": 1, "engine.repair_mbps_parN": 0} {
		eng := engine.New(engine.Options{Parallelism: par})
		m[name] = mbps(int64(len(jobs))*size, probeFor(d, func() { eng.RunRepairs(jobs) }))
	}

	// cache: one put and one get at block size.
	c := cache.New(64*size, 8)
	var key uint64
	m["cache.put_ns"] = float64(probeFor(d, func() { key++; c.Put(key%32, out) }).Nanoseconds())
	m["cache.get_ns"] = float64(probeFor(d, func() { key++; c.Get(key % 32) }).Nanoseconds())

	// extent: appends then reads of a private store under the run's
	// temp dir, same fsync policy as the datanodes.
	st, err := extent.Open(extent.Options{Dir: filepath.Join(e.dir, "probe"), Fsync: fsyncPolicy})
	if err == nil {
		var id int64
		m["extent.put_mbps"] = mbps(size, probeFor(d, func() { id++; _ = st.Put(id%8, out) }))
		for id = 0; id < 8; id++ {
			_ = st.Put(id, out)
		}
		m["extent.get_mbps"] = mbps(size, probeFor(d, func() { id++; _, _ = st.Get(id % 8) }))
		st.Close()
		os.RemoveAll(st.Dir())
	}

	// hdfs: the workload's reads through Cluster().ReadFile, below the
	// wire; its gap to serve.read_mbps is what the wire path costs.
	if e.sp.Kind != kindRepair {
		md := e.sys.Cluster()
		pick := newPicker(rng, e.targets, e.sp.ZipfS)
		var bytes int64
		start := time.Now()
		for time.Since(start) < 4*d {
			data, err := md.ReadFile(pick.next())
			if err != nil {
				break
			}
			bytes += int64(len(data))
		}
		m["hdfs.direct_read_mbps"] = mbps(bytes, time.Since(start))
	}
}
