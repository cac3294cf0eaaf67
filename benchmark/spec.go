package main

import (
	"fmt"
	"math/rand"
)

// The cluster every workload runs on: the paper's one-rack-per-block
// placement needs at least k+r = 14 racks; 16 x 2 leaves spare racks
// for repair destinations.
const (
	racks           = 16
	machinesPerRack = 2
	replication     = 3
	dataShards      = 10
	parityShards    = 4
	// clients is the closed-loop client count of the untraced pass:
	// the core count of the reference machine, so nothing idles and
	// nothing oversubscribes. The traced pass always runs one client so
	// that spans nest by time.
	clients = 2
)

type kind int

const (
	kindRead     kind = iota // whole-file reads of a preloaded set
	kindDegraded             // reads of files that lost a block to a dead machine
	kindIngest               // a mix of ingests (write then raid) and reads
	kindRepair               // kill a machine, run the block fixer, repeat
)

// spec is one named workload. Sizes are fixed here, not flags: later
// changes are judged against exactly these.
type spec struct {
	Name string
	// Why is the one-line rationale recorded in BENCHMARK.json.
	Why           string
	Kind          kind
	BlockSize     int64
	BlocksPerFile int
	Files         int     // files preloaded (written, raided) during set-up
	ClientCache   int64   // serve.WithBlockCache per client; 0 = none
	NodeCache     int64   // hdfs.Config.NodeCacheBytes per machine; 0 = none
	ZipfS         float64 // > 1 skews read popularity; 0 = uniform
	IngestFrac    float64 // share of ops that ingest a fresh file
}

func (s spec) fileBytes() int64 { return s.BlockSize * int64(s.BlocksPerFile) }

// specs are sized so that three set-ups, the warm-up and a 8 s window
// fit the per-run budget of the contract (see README.md, "Sizing").
var specs = []spec{
	{
		Name: "healthy_read", Kind: kindRead,
		Why:       "32 raided files of 10x256 KiB, uniform whole-file reads, no caches: bytes dominate, so the serve copy path and extent Get+CRC do the work and the codec none",
		BlockSize: 256 << 10, BlocksPerFile: 10, Files: 32,
	},
	{
		Name: "small_read", Kind: kindRead,
		Why:       "2048 raided files of one 4 KiB block, uniform reads, no caches: per-message cost dominates (JSON headers, lockstep connections, the nn.blocks RPC, the hdfs read lock)",
		BlockSize: 4 << 10, BlocksPerFile: 1, Files: 2048,
	},
	{
		Name: "hot_read", Kind: kindRead,
		Why:       "256 raided files of 4x64 KiB, Zipf s=1.1, 8 MiB client cache (smaller than the 64 MiB set), 8 MiB node cache per machine (holds it): the cache tier does the work, extent almost none",
		BlockSize: 64 << 10, BlocksPerFile: 4, Files: 256,
		ClientCache: 8 << 20, NodeCache: 8 << 20, ZipfS: 1.1,
	},
	{
		Name: "degraded_read", Kind: kindDegraded,
		Why:       "healthy_read geometry with the machine holding the most data blocks killed and not repaired; reads hit only files that lost a block, so every op plans, fetches helpers and decodes one block",
		BlockSize: 256 << 10, BlocksPerFile: 10, Files: 32,
	},
	{
		Name: "ingest_mixed", Kind: kindIngest,
		Why:       "10x16 KiB files: 30% ingest (WriteFile then RaidFile of a fresh file), 70% uniform reads of 48 preloaded files: extent Put, core Encode and hdfs write locks beside reads",
		BlockSize: 16 << 10, BlocksPerFile: 10, Files: 48, IngestFrac: 0.3,
	},
	{
		Name: "node_repair", Kind: kindRepair,
		Why:       "120 raided files of 10x64 KiB (~52 blocks a machine): rounds of kill the next seeded victim, time RunBlockFixer, replace the machine; engine+core+extent rebuild a node, the serving wire idles",
		BlockSize: 64 << 10, BlocksPerFile: 10, Files: 120,
	},
}

// quick shrinks a spec for the smoke test: same shape, a fraction of
// the bytes.
func (s spec) quick() spec {
	if s.BlockSize > 8<<10 {
		s.BlockSize = 8 << 10
	}
	s.Files = max(4, s.Files/16)
	if s.ClientCache > 0 {
		// Still smaller than the shrunken set, as at full scale.
		s.ClientCache = s.fileBytes() * int64(s.Files) / 8
	}
	if s.NodeCache > 0 {
		s.NodeCache = 1 << 20
	}
	return s
}

func findSpec(name string, quick bool) (spec, error) {
	for _, s := range specs {
		if s.Name == name {
			if quick {
				s = s.quick()
			}
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// inputs are everything a run derives from the seed before the system
// exists: file names, file contents, and the payload pool fresh
// ingests draw from. The system under test sees only these bytes.
type inputs struct {
	seed    int64
	names   []string
	content map[string][]byte
	// pool holds the payloads of ingested files; an ingested file's
	// expected content is pool[its index], so verification needs no
	// second copy.
	pool [][]byte
}

// ingestPoolSize distinct payloads are enough that no two consecutive
// ingests share bytes while keeping the benchmark's own memory small.
const ingestPoolSize = 8

func makeInputs(sp spec, seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{seed: seed, content: make(map[string][]byte, sp.Files)}
	for i := 0; i < sp.Files; i++ {
		name := fmt.Sprintf("bench/f%05d", i)
		data := make([]byte, sp.fileBytes())
		rng.Read(data)
		in.names = append(in.names, name)
		in.content[name] = data
	}
	if sp.Kind == kindIngest {
		for i := 0; i < ingestPoolSize; i++ {
			data := make([]byte, sp.fileBytes())
			rng.Read(data)
			in.pool = append(in.pool, data)
		}
	}
	return in
}

// picker draws the next file to read: uniform, or Zipf with names[0]
// the hottest.
type picker struct {
	rng   *rand.Rand
	zipf  *rand.Zipf
	names []string
}

func newPicker(rng *rand.Rand, names []string, zipfS float64) *picker {
	p := &picker{rng: rng, names: names}
	if zipfS > 1 && len(names) > 1 {
		p.zipf = rand.NewZipf(rng, zipfS, 1, uint64(len(names)-1))
	}
	return p
}

func (p *picker) next() string {
	if p.zipf != nil {
		return p.names[p.zipf.Uint64()]
	}
	return p.names[p.rng.Intn(len(p.names))]
}
