package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// encodeFile writes a random file and encodes it into dir with pbrs
// (10,4), returning the file's contents.
func encodeFile(t *testing.T, dir string) []byte {
	t.Helper()
	data := make([]byte, 10_000)
	rand.New(rand.NewSource(1)).Read(data)
	in := filepath.Join(t.TempDir(), "input")
	if err := os.WriteFile(in, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdEncode([]string{"-in", in, "-out", dir}); err != nil {
		t.Fatal(err)
	}
	return data
}

// A truncated shard file is a lost shard: repair rebuilds it beside a
// deleted one instead of slicing past its end, and decode then returns
// the original file.
func TestRepairRebuildsTruncatedAndDeletedShards(t *testing.T) {
	dir := t.TempDir()
	data := encodeFile(t, dir)
	if err := os.Truncate(shardPath(dir, 2), 7); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(shardPath(dir, 11)); err != nil {
		t.Fatal(err)
	}
	if err := cmdVerify([]string{"-dir", dir}); err != nil {
		t.Fatalf("verify of a damaged set should report, not fail: %v", err)
	}
	if err := cmdRepair([]string{"-dir", dir}); err != nil {
		t.Fatal(err)
	}
	if err := cmdVerify([]string{"-dir", dir}); err != nil {
		t.Fatalf("verify after repair: %v", err)
	}
	out := filepath.Join(t.TempDir(), "output")
	if err := cmdDecode([]string{"-dir", dir, "-out", out}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("decoded file differs from the original")
	}
}

// Every subcommand that reads a manifest refuses one that does not fit
// the codec it names, rather than sizing a slice from it.
func TestManifestMustFitItsCodec(t *testing.T) {
	for name, m := range map[string]manifest{
		"negative shards":      {Code: "pbrs", K: 10, R: 4, Shards: -1, ShardSize: 1000, FileSize: 10_000},
		"too few shards":       {Code: "pbrs", K: 10, R: 4, Shards: 13, ShardSize: 1000, FileSize: 10_000},
		"too many shards":      {Code: "rs", K: 10, R: 4, Shards: 15, ShardSize: 1000, FileSize: 10_000},
		"zero shard size":      {Code: "pbrs", K: 10, R: 4, Shards: 14, ShardSize: 0, FileSize: 0},
		"negative shard size":  {Code: "rs", K: 10, R: 4, Shards: 14, ShardSize: -8, FileSize: 0},
		"odd piggyback shard":  {Code: "pbrs", K: 10, R: 4, Shards: 14, ShardSize: 999, FileSize: 9990},
		"negative file size":   {Code: "pbrs", K: 10, R: 4, Shards: 14, ShardSize: 1000, FileSize: -1},
		"file beyond capacity": {Code: "pbrs", K: 10, R: 4, Shards: 14, ShardSize: 1000, FileSize: 10_001},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			encodeFile(t, dir)
			writeManifest(t, dir, m)
			for _, cmd := range []func([]string) error{cmdVerify, cmdRepair} {
				if err := cmd([]string{"-dir", dir}); err == nil {
					t.Fatalf("manifest %+v accepted", m)
				}
			}
			if err := cmdDecode([]string{"-dir", dir, "-out", filepath.Join(dir, "out")}); err == nil {
				t.Fatalf("manifest %+v accepted by decode", m)
			}
		})
	}
}

func writeManifest(t *testing.T, dir string, m manifest) {
	t.Helper()
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifestPath(dir), raw, 0o644); err != nil {
		t.Fatal(err)
	}
}
