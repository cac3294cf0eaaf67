package serve

import (
	"bytes"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/hdfs"
)

// Lending tests: ReadFile reads every block a replica can serve first
// and lends those to the reconstruction of the rest, so a plan read of a
// shard the read already holds never crosses the wire. Every case holds
// the client's counters to the codec's own repair plans, range by range.

const lendBlock = 4096 // startTestSystem's block size; a full block is one shard

// lendFile stores size seeded bytes as the raided file "f".
func lendFile(t *testing.T, sys *System, size int) []byte {
	t.Helper()
	cl, err := Dial(sys.NameAddr(), sys.Code())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	data := make([]byte, size)
	rand.New(rand.NewSource(int64(size))).Read(data)
	if err := cl.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	if err := cl.RaidFile("f"); err != nil {
		t.Fatal(err)
	}
	return data
}

// killHolders kills the machine holding each listed block of "f".
func killHolders(t *testing.T, sys *System, indexes ...int) {
	t.Helper()
	_, blocks, err := sys.Cluster().FileBlocks("f")
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range indexes {
		// A kill may already have taken this block's holder with it.
		if locs := blocks[i].Locations; len(locs) > 0 && sys.Cluster().MachineAlive(locs[0]) {
			if err := sys.KillDataNode(locs[0]); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// lendSplit is what one ReadFile of "f" must cost, from the codec's
// plans: the file's blocks without a live replica (and those in
// unreadable, for replicas the namenode still lists) are reconstructed
// in block order, every other block of the file is in hand by then, and
// so is each block reconstructed before. Of a plan's reads, data
// positions are lent, parity positions fetched, phantom positions
// neither.
type lendSplit struct {
	blocks, fetched, lent, phantom, planned int64
	perBlock                                []int64 // fetched, per reconstruction
}

func planSplit(t *testing.T, sys *System, unreadable ...int) lendSplit {
	t.Helper()
	code := sys.Code()
	_, blocks, err := sys.Cluster().FileBlocks("f")
	if err != nil {
		t.Fatal(err)
	}
	lost := make(map[hdfs.BlockID]bool)
	for _, i := range unreadable {
		lost[blocks[i].ID] = true
	}
	for _, b := range blocks {
		if len(b.Locations) == 0 {
			lost[b.ID] = true
		}
	}
	var w lendSplit
	rebuilt := make(map[hdfs.BlockID]bool)
	for _, b := range blocks {
		if !lost[b.ID] {
			continue
		}
		st, err := sys.Cluster().Stripe(b.Stripe)
		if err != nil {
			t.Fatal(err)
		}
		alive := func(pos int) bool {
			p := st.Positions[pos]
			if pos == b.StripePos {
				return false
			}
			return p.Block < 0 || rebuilt[p.Block] || (len(p.Locations) > 0 && !lost[p.Block])
		}
		plan, err := code.PlanRepair(b.StripePos, st.ShardSize, alive)
		if err != nil {
			t.Fatal(err)
		}
		var fetched int64
		for _, r := range plan.Reads {
			switch {
			case st.Positions[r.Shard].Block < 0:
				w.phantom += r.Length
			case r.Shard < code.DataShards():
				w.lent += r.Length
			default:
				fetched += r.Length
			}
		}
		w.blocks++
		w.fetched += fetched
		w.planned += plan.TotalBytes()
		w.perBlock = append(w.perBlock, fetched)
		rebuilt[b.ID] = true
	}
	return w
}

// readLent reads "f" on a fresh client, checks the bytes, and holds the
// counters to want.
func readLent(t *testing.T, sys *System, data []byte, want lendSplit, opts ...ClientOption) Counters {
	t.Helper()
	cl, err := Dial(sys.NameAddr(), sys.Code(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	got, err := cl.ReadFile("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded read is not byte-identical")
	}
	c := cl.Counters()
	if c.DegradedBlocks != want.blocks || c.DegradedBytesFetched != want.fetched || c.DegradedBytesLent != want.lent {
		t.Fatalf("read reconstructed %d blocks, fetched %d and was lent %d bytes; the plans say %d, %d and %d",
			c.DegradedBlocks, c.DegradedBytesFetched, c.DegradedBytesLent, want.blocks, want.fetched, want.lent)
	}
	return c
}

func TestLentBlocksCutADegradedReadToOneShard(t *testing.T) {
	for _, code := range testCodecs(t) {
		k := code.DataShards()
		t.Run(code.Name(), func(t *testing.T) {
			// One lost data block of a full stripe: the other k-1 are lent,
			// and exactly one shard's worth of parity crosses the wire.
			t.Run("one lost", func(t *testing.T) {
				sys := startTestSystem(t, code)
				data := lendFile(t, sys, k*lendBlock)
				killHolders(t, sys, 1)
				want := planSplit(t, sys)
				if want.blocks != 1 || want.fetched != lendBlock || want.lent == 0 {
					t.Fatalf("plans: %+v, want one block costing one %d-byte shard on the wire", want, lendBlock)
				}
				// The identity Counters documents, on a stripe without phantoms.
				if c := readLent(t, sys, data, want); c.DegradedBytesFetched+c.DegradedBytesLent != want.planned {
					t.Fatalf("fetched %d + lent %d, the plan reads %d", c.DegradedBytesFetched, c.DegradedBytesLent, want.planned)
				}
			})

			// Two lost in one stripe (the paper's 1.87% case): the first
			// reconstruction joins the lent set, so the second costs one
			// more shard, not a second full plan.
			t.Run("two lost", func(t *testing.T) {
				sys := startTestSystem(t, code)
				data := lendFile(t, sys, k*lendBlock)
				killHolders(t, sys, 0, 1)
				want := planSplit(t, sys)
				if want.blocks != 2 || want.perBlock[1] != lendBlock {
					t.Fatalf("plans: %+v, want two blocks, the second costing one %d-byte shard", want, lendBlock)
				}
				readLent(t, sys, data, want)
			})

			// Two stripes, the second a short tail with a phantom position,
			// one block lost in each: a stripe is lent its own blocks only,
			// and phantom reads are neither fetched nor lent.
			t.Run("multi-stripe with a phantom tail", func(t *testing.T) {
				sys := startTestSystem(t, code)
				data := lendFile(t, sys, (2*k-1)*lendBlock)
				killHolders(t, sys, 2, 2*k-2)
				want := planSplit(t, sys)
				if want.blocks < 2 || want.phantom == 0 {
					t.Fatalf("plans: %+v, want a loss in each stripe and phantom reads in the tail", want)
				}
				if c := readLent(t, sys, data, want); c.DegradedBytesFetched+c.DegradedBytesLent != want.planned-want.phantom {
					t.Fatalf("fetched %d + lent %d, the plans read %d of which %d phantom", c.DegradedBytesFetched, c.DegradedBytesLent, want.planned, want.phantom)
				}
			})

			// The file's last block is shorter than the shard: lent, it is
			// copied out zero-padded; lost, it is decoded and cut to size.
			for name, victim := range map[string]int{"short block lent": 0, "short block lost": k - 1} {
				t.Run(name, func(t *testing.T) {
					sys := startTestSystem(t, code)
					data := lendFile(t, sys, (k-1)*lendBlock+1001)
					killHolders(t, sys, victim)
					want := planSplit(t, sys)
					if want.blocks != 1 || want.fetched != lendBlock {
						t.Fatalf("plans: %+v, want one block costing one shard", want)
					}
					readLent(t, sys, data, want)
				})
			}

			// A replica the datanode refuses for bit rot is as lost as one
			// on a dead machine, and reconstructed the same way.
			t.Run("bit rot", func(t *testing.T) {
				cfg, _ := onDisk(t, testConfig(code))
				sys := startSystem(t, cfg)
				data := lendFile(t, sys, k*lendBlock)
				_, blocks, err := sys.Cluster().FileBlocks("f")
				if err != nil {
					t.Fatal(err)
				}
				if err := sys.Cluster().InjectBitRot(blocks[2].Locations[0], blocks[2].ID, 9); err != nil {
					t.Fatal(err)
				}
				want := planSplit(t, sys, 2)
				if c := readLent(t, sys, data, want); c.CorruptReplicas != 1 || want.fetched != lendBlock {
					t.Fatalf("counters %+v, plans %+v: want one refused replica rebuilt for one shard", c, want)
				}
			})
		})
	}
}

// TestLosingHedgeArmReadsLentBlocksAfterReadFileReturns: the last block's
// holder is slow, so its read is hedged: the reconstruction arm is lent
// the blocks already read, then parks on a parity holder that is slower
// still. The primary wins, ReadFile returns, and the caller scribbles
// over the result while the losing arm is still to decode from what it
// was lent. Lent buffers are the read's own per-block buffers, never
// views of the result, so under -race this is silent — which says
// something only where the detector sees the decoder's reads: `make
// race` repeats this test with -tags purego, since the amd64 kernels
// are assembly.
func TestLosingHedgeArmReadsLentBlocksAfterReadFileReturns(t *testing.T) {
	for _, code := range testCodecs(t) {
		t.Run(code.Name(), func(t *testing.T) {
			k := code.DataShards()
			sys := startTestSystem(t, code)
			data := lendFile(t, sys, k*lendBlock)
			_, blocks, err := sys.Cluster().FileBlocks("f")
			if err != nil {
				t.Fatal(err)
			}
			st, err := sys.Cluster().Stripe(blocks[0].Stripe)
			if err != nil {
				t.Fatal(err)
			}
			const slowPrimary, slowerParity = 50 * time.Millisecond, time.Second
			if err := sys.ThrottleDataNode(blocks[k-1].Locations[0], slowPrimary); err != nil {
				t.Fatal(err)
			}
			for _, p := range st.Positions[k:] {
				if err := sys.ThrottleDataNode(p.Locations[0], slowerParity); err != nil {
					t.Fatal(err)
				}
			}
			cl, err := Dial(sys.NameAddr(), code, WithHedgedReads(5*time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			got, err := cl.ReadFile("f")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("hedged read is not byte-identical")
			}
			if c := cl.Counters(); c.HedgedReads != 1 || c.HedgeWins != 0 || c.DegradedBytesFetched != 0 {
				t.Fatalf("counters %+v: want one hedge armed, lost to the primary, its parity fetch still parked", c)
			}
			for i := range got {
				got[i] = 0xff
			}
			// The arm's parity arrives, and it decodes from the lent blocks.
			waitFor(t, 10*time.Second, "the losing hedge arm to fetch its parity", func() bool {
				return cl.Counters().DegradedBytesFetched > 0
			})
			if c := cl.Counters(); c.DegradedBytesLent == 0 {
				t.Fatalf("the hedge arm was lent nothing: %+v", c)
			}
			again, err := cl.ReadFile("f")
			if err != nil || !bytes.Equal(again, data) {
				t.Fatalf("read after the caller overwrote the first result: %v", err)
			}
		})
	}
}

// fakeDataNode listens like a datanode and hands every request frame of
// every connection to answer, hanging up when answer returns an error.
func fakeDataNode(t *testing.T, answer func(c net.Conn, req *request) error) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				for {
					var req request
					if _, err := readFrame(c, &req, nil); err != nil {
						return
					}
					if err := answer(c, &req); err != nil {
						return
					}
				}
			}(c)
		}
	}()
	return ln.Addr().String()
}

// wrongLengthReplies is a datanode that answers every dn.read with by
// bytes more (or, negative, fewer) than were asked for, all of them 0x55.
func wrongLengthReplies(t *testing.T, by int64) string {
	return fakeDataNode(t, func(c net.Conn, req *request) error {
		return writeFrame(c, okResponse(), bytes.Repeat([]byte{0x55}, int(req.Length+by)))
	})
}

// TestWrongLengthReplyIsAFailedReplica: a datanode that answers a read
// with the wrong number of bytes is a failed replica, not a source of
// file bytes, lent blocks or decoder input — the block it should have
// served is reconstructed.
func TestWrongLengthReplyIsAFailedReplica(t *testing.T) {
	code := testCodecs(t)[1]
	sys := startTestSystem(t, code)
	data := lendFile(t, sys, code.DataShards()*lendBlock)
	_, blocks, err := sys.Cluster().FileBlocks("f")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(sys.NameAddr(), code)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	liar := blocks[1].Locations[0]
	cl.mu.Lock()
	cl.addrs[liar] = wrongLengthReplies(t, -1)
	cl.mu.Unlock()

	if buf, err := cl.dnRead(liar, int64(blocks[1].ID), 0, lendBlock, nil, nil); err == nil {
		t.Fatalf("a %d-byte answer to a %d-byte read was accepted", len(buf), lendBlock)
	}
	got, err := cl.ReadFile("f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read around the short replica is not byte-identical")
	}
	if c := cl.Counters(); c.DegradedBlocks != 1 || c.DegradedBytesFetched != lendBlock {
		t.Fatalf("counters %+v: want the short replica's block reconstructed for one shard", c)
	}
}

// tamperingNameNode relays every RPC to the real namenode and passes
// each reply through tamper.
func tamperingNameNode(t *testing.T, real string, tamper func(*response)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				up, err := dialConn(real, defaultTimeout)
				if err != nil {
					return
				}
				defer up.close()
				for {
					var req request
					payload, err := readFrame(c, &req, nil)
					if err != nil {
						return
					}
					resp, out, err := up.call(&req, payload, defaultTimeout, nil)
					if err != nil {
						resp = errResponse(err)
					}
					tamper(resp)
					if err := writeFrame(c, resp, out); err != nil {
						return
					}
				}
			}(c)
		}
	}()
	return ln.Addr().String()
}

// TestReadFileRefusesAResultOfTheWrongLength: block sizes that do not
// add up to the file size the namenode reports fail the read; no caller
// is handed a result of another length than the file's. The table cuts
// the result into slots, so it is refused up front: before a single
// datanode has been asked for a byte.
func TestReadFileRefusesAResultOfTheWrongLength(t *testing.T) {
	code := testCodecs(t)[0]
	sys := startTestSystem(t, code, WithTelemetry(TelemetryConfig{}))
	datanodeRPCs := func() (n int64) {
		for name, v := range sys.Telemetry().Snapshot().Counters {
			if strings.HasPrefix(name, `rpc_requests_total{role="datanode"`) {
				n += v
			}
		}
		return n
	}
	setup, err := Dial(sys.NameAddr(), code)
	if err != nil {
		t.Fatal(err)
	}
	defer setup.Close()
	data := bytes.Repeat([]byte("size"), 3*lendBlock/4-100)
	if err := setup.WriteFile("f", data); err != nil {
		t.Fatal(err)
	}
	for name, tamper := range map[string]func(*response){
		"honest":      func(*response) {},
		"short block": func(r *response) { shrinkLastBlock(r, 1) },
		"long block":  func(r *response) { shrinkLastBlock(r, -1) },
		"empty block": func(r *response) { shrinkLastBlock(r, 1<<40) },
		"huge block":  func(r *response) { shrinkLastBlock(r, -2*maxPayloadBytes) },
	} {
		t.Run(name, func(t *testing.T) {
			cl, err := Dial(tamperingNameNode(t, sys.NameAddr(), tamper), code)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			before := datanodeRPCs()
			got, err := cl.ReadFile("f")
			asked := datanodeRPCs() - before
			if name == "honest" {
				if err != nil || !bytes.Equal(got, data) || asked == 0 {
					t.Fatalf("read through the relay, %d datanode RPCs: %v", asked, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("read returned %d bytes of a %d-byte file", len(got), len(data))
			}
			if asked != 0 {
				t.Fatalf("%d datanode RPCs were made for a table that does not add up", asked)
			}
		})
	}
}

// shrinkLastBlock makes an nn.blocks reply's last block by bytes smaller
// than it is (never below zero), leaving the file size alone.
func shrinkLastBlock(r *response, by int64) {
	if n := len(r.Blocks); n > 0 {
		r.Blocks[n-1].Size = max(r.Blocks[n-1].Size-by, 0)
	}
}

// BenchmarkDegradedReadFile reads a one-stripe Piggybacked-RS(4,2) file
// that lost a data block, on a live system over extent stores. wire-B/
// user-B is what the client downloaded per byte it returned: 1 with the
// held blocks lent (k-1 blocks read plus one shard of parity), against
// (k-1)/k plus the whole repair plan without.
func BenchmarkDegradedReadFile(b *testing.B) {
	const blockSize = 64 << 10
	sys, code := startExtentSystem(b, blockSize)
	data := writeFiles(b, sys, code, 1, code.DataShards()*blockSize, true)["f0"]
	_, blocks, err := sys.Cluster().FileBlocks("f0")
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.KillDataNode(blocks[0].Locations[0]); err != nil {
		b.Fatal(err)
	}
	cl, err := Dial(sys.NameAddr(), code)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := cl.ReadFile("f0")
		if err != nil || !bytes.Equal(got, data) {
			b.Fatalf("degraded read: %v", err)
		}
	}
	b.StopTimer()
	c := cl.Counters()
	wire := (c.BlocksRead-c.DegradedBlocks)*blockSize + c.DegradedBytesFetched
	b.ReportMetric(float64(wire)/float64(int64(b.N)*int64(len(data))), "wire-B/user-B")
}
