// Command pbrsctl encodes, verifies, and repairs files on disk with any
// of the reproduction's codecs — a small operational tool mirroring what
// HDFS-RAID does to blocks, at file granularity.
//
// Usage:
//
//	pbrsctl encode -code pbrs -k 10 -r 4 -in FILE -out DIR
//	pbrsctl verify -dir DIR
//	pbrsctl corrupt -dir DIR -shard N
//	pbrsctl repair -dir DIR
//	pbrsctl decode -dir DIR -out FILE
//
// encode writes FILE as DIR/shard.000 ... plus DIR/manifest.json;
// corrupt deletes a shard (simulating a lost machine); repair
// reconstructs all missing shards using the codec's repair plans,
// printing how many bytes were read; decode reassembles the original
// file from the data shards.
//
// It regenerates no row of the map in the root package doc (doc.go): it
// runs the codecs' repair plans over real files.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/lrc"
	"repro/internal/rs"
	"repro/internal/stats"
)

// manifest records what encode wrote, so the other subcommands can
// rebuild the codec and file geometry.
type manifest struct {
	Code      string `json:"code"` // rs | pbrs | lrc
	K         int    `json:"k"`
	R         int    `json:"r"`
	Locals    int    `json:"locals,omitempty"`
	FileName  string `json:"file_name"`
	FileSize  int64  `json:"file_size"`
	ShardSize int64  `json:"shard_size"`
	Shards    int    `json:"shards"`
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "encode":
		err = cmdEncode(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "corrupt":
		err = cmdCorrupt(os.Args[2:])
	case "repair":
		err = cmdRepair(os.Args[2:])
	case "decode":
		err = cmdDecode(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pbrsctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: pbrsctl <encode|verify|corrupt|repair|decode> [flags]
  encode  -in FILE -out DIR [-code rs|pbrs|lrc] [-k 10] [-r 4] [-locals 2]
  verify  -dir DIR
  corrupt -dir DIR -shard N
  repair  -dir DIR
  decode  -dir DIR -out FILE`)
}

func buildCodec(m manifest) (ec.Code, error) {
	switch m.Code {
	case "rs":
		return rs.New(m.K, m.R)
	case "pbrs":
		return core.New(m.K, m.R)
	case "lrc":
		return lrc.New(m.K, m.R, m.Locals)
	default:
		return nil, fmt.Errorf("unknown code %q", m.Code)
	}
}

func shardPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard.%03d", i))
}

func manifestPath(dir string) string { return filepath.Join(dir, "manifest.json") }

func loadManifest(dir string) (manifest, ec.Code, error) {
	var m manifest
	raw, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		return m, nil, err
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return m, nil, fmt.Errorf("parsing manifest: %w", err)
	}
	code, err := buildCodec(m)
	if err != nil {
		return m, nil, err
	}
	// The manifest is input from disk: hold it to the codec it names
	// before any of its numbers sizes a slice or bounds a read.
	if m.Shards != code.TotalShards() {
		return m, nil, fmt.Errorf("manifest: %d shards, %s has %d", m.Shards, code.Name(), code.TotalShards())
	}
	if m.ShardSize <= 0 || m.ShardSize%int64(code.MinShardSize()) != 0 {
		return m, nil, fmt.Errorf("manifest: shard size %d is not a positive multiple of %d", m.ShardSize, code.MinShardSize())
	}
	// FileSize <= k*ShardSize, without overflowing the product.
	if k := int64(code.DataShards()); m.FileSize < 0 || (m.FileSize > 0 && (m.FileSize-1)/k >= m.ShardSize) {
		return m, nil, fmt.Errorf("manifest: file size %d does not fit %d shards of %d", m.FileSize, k, m.ShardSize)
	}
	return m, code, nil
}

// loadShards reads present shard files; missing ones stay nil, and so
// does a file of the wrong length (truncated or grown), so repair
// rebuilds it and verify reports it.
func loadShards(dir string, m manifest) ([][]byte, error) {
	shards := make([][]byte, m.Shards)
	for i := range shards {
		raw, err := os.ReadFile(shardPath(dir, i))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		if int64(len(raw)) == m.ShardSize {
			shards[i] = raw
		}
	}
	return shards, nil
}

func cmdEncode(args []string) error {
	fs := flag.NewFlagSet("encode", flag.ExitOnError)
	in := fs.String("in", "", "input file")
	out := fs.String("out", "", "output directory")
	codeName := fs.String("code", "pbrs", "codec: rs, pbrs, or lrc")
	k := fs.Int("k", 10, "data shards")
	r := fs.Int("r", 4, "parity shards")
	locals := fs.Int("locals", 2, "local groups (lrc only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return errors.New("encode requires -in and -out")
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	m := manifest{Code: *codeName, K: *k, R: *r, Locals: *locals,
		FileName: filepath.Base(*in), FileSize: int64(len(data))}
	code, err := buildCodec(m)
	if err != nil {
		return err
	}
	shards, err := ec.SplitShards(data, code.DataShards(), code.TotalShards()-code.DataShards(), code.MinShardSize())
	if err != nil {
		return err
	}
	if err := code.Encode(shards); err != nil {
		return err
	}
	m.Shards = code.TotalShards()
	m.ShardSize = int64(len(shards[0]))

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	for i, s := range shards {
		if err := os.WriteFile(shardPath(*out, i), s, 0o644); err != nil {
			return err
		}
	}
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(manifestPath(*out), raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("encoded %s (%s) with %s: %d shards of %s in %s\n",
		m.FileName, stats.FormatBytes(m.FileSize), code.Name(), m.Shards,
		stats.FormatBytes(m.ShardSize), *out)
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	dir := fs.String("dir", "", "shard directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, code, err := loadManifest(*dir)
	if err != nil {
		return err
	}
	shards, err := loadShards(*dir, m)
	if err != nil {
		return err
	}
	missing := 0
	for _, s := range shards {
		if s == nil {
			missing++
		}
	}
	if missing > 0 {
		fmt.Printf("%d of %d shards missing; run 'pbrsctl repair -dir %s'\n", missing, m.Shards, *dir)
		return nil
	}
	ok, err := code.Verify(shards)
	if err != nil {
		return err
	}
	if !ok {
		return errors.New("parity verification FAILED: shards are corrupt")
	}
	fmt.Printf("all %d shards present, parity verifies (%s)\n", m.Shards, code.Name())
	return nil
}

func cmdCorrupt(args []string) error {
	fs := flag.NewFlagSet("corrupt", flag.ExitOnError)
	dir := fs.String("dir", "", "shard directory")
	shard := fs.Int("shard", -1, "shard index to delete")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, _, err := loadManifest(*dir)
	if err != nil {
		return err
	}
	if *shard < 0 || *shard >= m.Shards {
		return fmt.Errorf("shard must be in [0, %d)", m.Shards)
	}
	if err := os.Remove(shardPath(*dir, *shard)); err != nil {
		return err
	}
	fmt.Printf("deleted shard %d (simulating a failed machine)\n", *shard)
	return nil
}

func cmdRepair(args []string) error {
	fs := flag.NewFlagSet("repair", flag.ExitOnError)
	dir := fs.String("dir", "", "shard directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, code, err := loadManifest(*dir)
	if err != nil {
		return err
	}
	shards, err := loadShards(*dir, m)
	if err != nil {
		return err
	}
	alive := func(i int) bool { return i >= 0 && i < len(shards) && shards[i] != nil }
	var readBytes int64
	fetch := func(req ec.ReadRequest) ([]byte, error) {
		s := shards[req.Shard]
		if s == nil {
			return nil, fmt.Errorf("shard %d missing", req.Shard)
		}
		readBytes += req.Length
		return s[req.Offset : req.Offset+req.Length], nil
	}
	repaired := 0
	for i := range shards {
		if shards[i] != nil {
			continue
		}
		got, err := code.ExecuteRepair(i, m.ShardSize, alive, fetch)
		if err != nil {
			return fmt.Errorf("repairing shard %d: %w", i, err)
		}
		if err := os.WriteFile(shardPath(*dir, i), got, 0o644); err != nil {
			return err
		}
		shards[i] = got
		repaired++
		fmt.Printf("repaired shard %d\n", i)
	}
	if repaired == 0 {
		fmt.Println("nothing to repair")
		return nil
	}
	fmt.Printf("repaired %d shards reading %s (RS baseline for one shard: %s)\n",
		repaired, stats.FormatBytes(readBytes),
		stats.FormatBytes(int64(code.DataShards())*m.ShardSize))
	return nil
}

func cmdDecode(args []string) error {
	fs := flag.NewFlagSet("decode", flag.ExitOnError)
	dir := fs.String("dir", "", "shard directory")
	out := fs.String("out", "", "output file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return errors.New("decode requires -out")
	}
	m, code, err := loadManifest(*dir)
	if err != nil {
		return err
	}
	shards, err := loadShards(*dir, m)
	if err != nil {
		return err
	}
	if err := code.Reconstruct(shards); err != nil {
		return err
	}
	data, err := ec.JoinShards(shards, code.DataShards(), int(m.FileSize))
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("decoded %s (%s) to %s\n", m.FileName, stats.FormatBytes(m.FileSize), *out)
	return nil
}
