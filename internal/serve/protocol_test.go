package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// shortTimeout bounds robustness-test RPCs so a regression that hangs
// fails fast instead of stalling the suite.
const shortTimeout = 2 * time.Second

// --- Frame codec robustness -------------------------------------------

// TestReadFrameTruncations: a frame cut anywhere — preamble, header,
// payload — returns an error, never a partial success.
func TestReadFrameTruncations(t *testing.T) {
	var full bytes.Buffer
	if err := writeFrame(&full, &request{Method: "dn.read", Length: 64}, []byte("payload-bytes")); err != nil {
		t.Fatal(err)
	}
	raw := full.Bytes()
	for cut := 0; cut < len(raw); cut++ {
		var req request
		_, err := readFrame(bytes.NewReader(raw[:cut]), &req, nil)
		if err == nil {
			t.Fatalf("frame truncated at %d of %d bytes accepted", cut, len(raw))
		}
	}
	// The intact frame still parses (the loop above must not be
	// vacuously passing on a broken encoder).
	var req request
	payload, err := readFrame(bytes.NewReader(raw), &req, nil)
	if err != nil || req.Method != "dn.read" || string(payload) != "payload-bytes" {
		t.Fatalf("intact frame broken: %v %+v %q", err, req, payload)
	}
}

// TestReadFrameOversizedDeclaredLengths: hostile header and payload
// lengths are rejected before any allocation of that size.
func TestReadFrameOversizedDeclaredLengths(t *testing.T) {
	cases := map[string][8]byte{}
	var pre [8]byte
	binary.BigEndian.PutUint32(pre[0:4], maxHeaderBytes+1)
	binary.BigEndian.PutUint32(pre[4:8], 0)
	cases["header"] = pre
	binary.BigEndian.PutUint32(pre[0:4], 2)
	binary.BigEndian.PutUint32(pre[4:8], maxPayloadBytes+1)
	cases["payload"] = pre
	for name, preamble := range cases {
		var req request
		_, err := readFrame(bytes.NewReader(append(preamble[:], 0x7b, 0x7d)), &req, nil)
		if !errors.Is(err, errFrameTooLarge) {
			t.Errorf("oversized %s length: got %v, want errFrameTooLarge", name, err)
		}
	}
}

// TestReadFrameCorruptHeader: declared lengths fine, and where a binary
// header should be, JSON garbage.
func TestReadFrameCorruptHeader(t *testing.T) {
	hdr := []byte(`{"method": not-json!`)
	var buf bytes.Buffer
	var pre [8]byte
	binary.BigEndian.PutUint32(pre[0:4], uint32(len(hdr)))
	binary.BigEndian.PutUint32(pre[4:8], 0)
	buf.Write(pre[:])
	buf.Write(hdr)
	var req request
	if _, err := readFrame(&buf, &req, nil); err == nil || !strings.Contains(err.Error(), "bad frame header") {
		t.Fatalf("corrupt JSON header: got %v", err)
	}
}

// TestJSONEraFrameIsRefusedByBothDaemons: there is one wire format. A
// well-formed frame of the old one — a JSON header, opening with '{' —
// is not answered in kind or at all: the header is refused on its first
// byte and the daemon hangs up, namenode and datanode alike.
func TestJSONEraFrameIsRefusedByBothDaemons(t *testing.T) {
	sys := startTestSystem(t, testCodecs(t)[0])
	for daemon, tc := range map[string]struct{ addr, header string }{
		"namenode": {sys.NameAddr(), `{"method":"info"}`},
		"datanode": {sys.dataNodeAddrs()[0], `{"method":"dn.ping"}`},
	} {
		var req request
		if _, err := readFrame(bytes.NewReader(framed([]byte(tc.header))), &req, nil); !errors.Is(err, errNotBinary) {
			t.Fatalf("%s: readFrame of a JSON header: %v, want errNotBinary", daemon, err)
		}
		nc, err := net.DialTimeout("tcp", tc.addr, shortTimeout)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nc.Write(framed([]byte(tc.header))); err != nil {
			t.Fatal(err)
		}
		nc.SetReadDeadline(time.Now().Add(shortTimeout))
		if n, err := nc.Read(make([]byte, 64)); err != io.EOF {
			t.Fatalf("%s answered a JSON-era frame with %d bytes (%v), want the connection closed", daemon, n, err)
		}
		nc.Close()
	}
	cl, err := Dial(sys.NameAddr(), sys.Code())
	if err != nil {
		t.Fatalf("namenode unhealthy afterwards: %v", err)
	}
	defer cl.Close()
	if _, _, err := cl.dnCallFull(0, &request{Method: methodDNPing}, shortTimeout, nil); err != nil {
		t.Fatalf("datanode unhealthy afterwards: %v", err)
	}
}

// allocatedDuring returns the bytes the whole process allocated while f
// ran.
func allocatedDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDeclaredPayloadLengthSizesNothingUntilTheBytesArrive: sixteen
// hostile bytes — a prefix declaring a 1 GiB payload, then silence —
// make neither daemon reserve it. A datanode takes no request payload at
// all and hangs up on the prefix; the namenode reads a write's payload
// into a buffer that grows only as bytes arrive, and lets go of it when
// the peer does. An honest write of 2.5 MiB still lands byte-identical.
func TestDeclaredPayloadLengthSizesNothingUntilTheBytesArrive(t *testing.T) {
	sys := startTestSystem(t, testCodecs(t)[0])
	hostile := func(req *request) []byte {
		var frame bytes.Buffer
		if err := writeFrame(&frame, req, nil); err != nil {
			t.Fatal(err)
		}
		raw := frame.Bytes()
		binary.BigEndian.PutUint32(raw[4:8], maxPayloadBytes)
		return raw
	}
	open := func(s *server) int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.conns)
	}
	sys.mu.Lock()
	dn := sys.dns[0]
	sys.mu.Unlock()

	grew := allocatedDuring(func() {
		nc, err := net.DialTimeout("tcp", dn.Addr(), shortTimeout)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		if _, err := nc.Write(hostile(&request{Method: methodDNRead, Block: 1, Length: 64})); err != nil {
			t.Fatal(err)
		}
		nc.SetReadDeadline(time.Now().Add(shortTimeout))
		if n, err := nc.Read(make([]byte, 64)); err != io.EOF {
			t.Fatalf("datanode answered a request declaring a payload with %d bytes (%v), want the connection closed", n, err)
		}
	})
	if grew > 1<<20 {
		t.Fatalf("a prefix declaring 1 GiB made the datanode allocate %d bytes", grew)
	}

	grew = allocatedDuring(func() {
		nc, err := net.DialTimeout("tcp", sys.NameAddr(), shortTimeout)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nc.Write(append(hostile(&request{Method: methodWrite, Name: "hostile"}), "a few bytes, then nothing"...)); err != nil {
			t.Fatal(err)
		}
		// The namenode is entitled to wait for the rest: it neither
		// answers nor hangs up ...
		nc.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		var timeout net.Error
		if n, err := nc.Read(make([]byte, 64)); !errors.As(err, &timeout) || !timeout.Timeout() {
			t.Fatalf("namenode reacted to a half-sent write with %d bytes (%v)", n, err)
		}
		// ... and drops the connection, and what it had read, when the
		// peer goes away.
		nc.Close()
		for deadline := time.Now().Add(shortTimeout); open(sys.nn.srv) > 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("namenode kept the half-sent write's connection open")
			}
		}
	})
	if grew > 1<<20 {
		t.Fatalf("a prefix declaring 1 GiB made the namenode allocate %d bytes", grew)
	}

	cl, err := Dial(sys.NameAddr(), sys.Code())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	data := make([]byte, 5<<19) // 2.5 MiB: ten payloadSteps, so the buffer grows four times
	rand.New(rand.NewSource(22)).Read(data)
	if err := cl.WriteFile("honest", data); err != nil {
		t.Fatal(err)
	}
	if got, err := cl.ReadFile("honest"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("an honest %d-byte write did not read back byte-identical: %v", len(data), err)
	}
	if _, err := cl.ReadFile("hostile"); err == nil {
		t.Fatal("the half-sent write was stored")
	}
}

// --- Server-side robustness -------------------------------------------

// robustServer starts a datanode daemon for hostile-input tests and a
// healthy client call to prove the daemon survived.
func robustServer(t *testing.T) (addr string, healthy func() error) {
	t.Helper()
	sys := startTestSystem(t, testCodecs(t)[0])
	dnAddr := sys.dataNodeAddrs()[0]
	healthy = func() error {
		cn, err := dialConn(dnAddr, shortTimeout)
		if err != nil {
			return err
		}
		defer cn.close()
		_, _, err = cn.call(&request{Method: methodDNPing}, nil, shortTimeout, nil)
		return err
	}
	return dnAddr, healthy
}

// TestServerSurvivesHostileBytes: raw garbage, oversized declared
// lengths, and mid-frame hangups must drop the offending connection —
// and nothing else. The daemon keeps answering healthy clients.
func TestServerSurvivesHostileBytes(t *testing.T) {
	addr, healthy := robustServer(t)
	hostile := [][]byte{
		[]byte("GET / HTTP/1.1\r\n\r\n"),     // not our protocol
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, // absurd header length
		func() []byte { // valid preamble, junk JSON
			hdr := []byte("{broken")
			var b bytes.Buffer
			var pre [8]byte
			binary.BigEndian.PutUint32(pre[0:4], uint32(len(hdr)))
			b.Write(pre[:])
			b.Write(hdr)
			return b.Bytes()
		}(),
		func() []byte { // declares a payload, never sends it (mid-frame drop)
			var b bytes.Buffer
			if err := writeFrame(&b, &request{Method: methodDNRead, Length: 1 << 20}, nil); err != nil {
				t.Fatal(err)
			}
			raw := b.Bytes()
			binary.BigEndian.PutUint32(raw[4:8], 1<<20) // promise 1 MiB payload
			return raw
		}(),
	}
	for i, blob := range hostile {
		nc, err := net.DialTimeout("tcp", addr, shortTimeout)
		if err != nil {
			t.Fatalf("case %d: dial: %v", i, err)
		}
		if _, err := nc.Write(blob); err != nil {
			t.Fatalf("case %d: write: %v", i, err)
		}
		nc.Close() // hang up mid-conversation
		if err := healthy(); err != nil {
			t.Fatalf("case %d: daemon unhealthy after hostile bytes: %v", i, err)
		}
	}
}

// TestServerRejectsMalformedPartialTrees: structurally hostile
// dn.partial requests come back as remote errors — never a panic, hang,
// or giant allocation.
func TestServerRejectsMalformedPartialTrees(t *testing.T) {
	addr, healthy := robustServer(t)
	deepTree := func(depth int) *wirePartialNode {
		n := &wirePartialNode{Machine: 0}
		for i := 0; i < depth; i++ {
			n = &wirePartialNode{Machine: 0, Children: []wirePartialNode{*n}}
			n.Children[0].Addr = addr
		}
		return n
	}
	cases := []struct {
		name string
		req  *request
	}{
		{"missing tree", &request{Method: methodDNPartial, Length: 64}},
		{"zero target", &request{Method: methodDNPartial, Length: 0, Partial: &wirePartialNode{Machine: 0}}},
		{"oversized target", &request{Method: methodDNPartial, Length: maxPayloadBytes + 1, Partial: &wirePartialNode{Machine: 0}}},
		{"target beyond shard bound", &request{Method: methodDNPartial, Length: 1 << 20, Partial: &wirePartialNode{Machine: 0}}},
		{"term outside target", &request{Method: methodDNPartial, Length: 64, Partial: &wirePartialNode{
			Machine: 0, Terms: []wirePartialTerm{{Block: 0, Offset: 0, Length: 32, TargetOff: 48, Coeff: 1}},
		}}},
		{"term overflowing int64", &request{Method: methodDNPartial, Length: 64, Partial: &wirePartialNode{
			Machine: 0, Terms: []wirePartialTerm{{Block: 0, Offset: 0, Length: 1 << 62, TargetOff: 1 << 62, Coeff: 1}},
		}}},
		{"negative term", &request{Method: methodDNPartial, Length: 64, Partial: &wirePartialNode{
			Machine: 0, Terms: []wirePartialTerm{{Block: 0, Offset: -4, Length: 8, Coeff: 1}},
		}}},
		{"child missing addr", &request{Method: methodDNPartial, Length: 64, Partial: &wirePartialNode{
			Machine: 0, Children: []wirePartialNode{{Machine: 1}},
		}}},
		{"tree too deep", &request{Method: methodDNPartial, Length: 64, Partial: deepTree(maxPartialNodes + 8)}},
		{"wrong machine", &request{Method: methodDNPartial, Length: 64, Partial: &wirePartialNode{Machine: 7}}},
	}
	for _, tc := range cases {
		cn, err := dialConn(addr, shortTimeout)
		if err != nil {
			t.Fatalf("%s: dial: %v", tc.name, err)
		}
		_, _, err = cn.call(tc.req, nil, shortTimeout, nil)
		cn.close()
		var remote *RemoteError
		if !errors.As(err, &remote) {
			t.Errorf("%s: got %v, want a RemoteError", tc.name, err)
		}
		if err := healthy(); err != nil {
			t.Fatalf("%s: daemon unhealthy afterwards: %v", tc.name, err)
		}
	}
}

// --- Client-side robustness -------------------------------------------

// misbehavingServer accepts one connection, reads the request frame,
// sends whatever respond writes, and closes.
func misbehavingServer(t *testing.T, respond func(c net.Conn)) string {
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
				var req request
				if _, err := readFrame(c, &req, nil); err != nil {
					return
				}
				respond(c)
			}(c)
		}
	}()
	return ln.Addr().String()
}

// TestClientSurvivesMisbehavingServer: truncated responses, corrupt
// response JSON, oversized declared lengths, and mid-frame hangups all
// surface as errors on the client — within the timeout, never a panic.
func TestClientSurvivesMisbehavingServer(t *testing.T) {
	cases := []struct {
		name    string
		respond func(c net.Conn)
	}{
		{"immediate close", func(c net.Conn) {}},
		{"half a preamble", func(c net.Conn) { c.Write([]byte{0, 0}) }},
		{"mid-frame drop", func(c net.Conn) {
			var b bytes.Buffer
			if err := writeFrame(&b, okResponse(), make([]byte, 4096)); err != nil {
				return
			}
			c.Write(b.Bytes()[:20]) // preamble + a sliver, then close
		}},
		{"corrupt response json", func(c net.Conn) {
			hdr := []byte("{oops")
			var pre [8]byte
			binary.BigEndian.PutUint32(pre[0:4], uint32(len(hdr)))
			c.Write(pre[:])
			c.Write(hdr)
		}},
		{"oversized response payload", func(c net.Conn) {
			var pre [8]byte
			binary.BigEndian.PutUint32(pre[0:4], 2)
			binary.BigEndian.PutUint32(pre[4:8], maxPayloadBytes+1)
			c.Write(pre[:])
			c.Write([]byte("{}"))
		}},
		{"silence until deadline", func(c net.Conn) {
			buf := make([]byte, 1)
			c.SetReadDeadline(time.Now().Add(10 * shortTimeout))
			io.ReadFull(c, buf) // never respond; client deadline must fire
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr := misbehavingServer(t, tc.respond)
			cn, err := dialConn(addr, shortTimeout)
			if err != nil {
				t.Fatal(err)
			}
			defer cn.close()
			done := make(chan error, 1)
			go func() {
				_, _, err := cn.call(&request{Method: methodDNPing}, nil, shortTimeout, nil)
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("call against misbehaving server succeeded")
				}
			case <-time.After(3 * shortTimeout):
				t.Fatal("client call hung past its deadline")
			}
		})
	}
}

// TestPartialChildFailureSurfacesAsError: a fold tree whose child
// address refuses connections errors out cleanly at the parent — the
// client sees a remote error and falls back, nothing hangs.
func TestPartialChildFailureSurfacesAsError(t *testing.T) {
	addr, healthy := robustServer(t)
	// Reserve a port that refuses connections by closing its listener.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	cn, err := dialConn(addr, shortTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.close()
	_, _, err = cn.call(&request{
		Method: methodDNPartial,
		Length: 64,
		Partial: &wirePartialNode{
			Machine:  0,
			Children: []wirePartialNode{{Machine: 1, Addr: deadAddr}},
		},
	}, nil, shortTimeout, nil)
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("dead child: got %v, want a RemoteError", err)
	}
	if err := healthy(); err != nil {
		t.Fatalf("daemon unhealthy after failed fold: %v", err)
	}
}

// --- Frame I/O gates ----------------------------------------------------

// recordingWriter keeps every Write it is handed, as handed.
type recordingWriter struct{ writes [][]byte }

func (w *recordingWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, p)
	return len(p), nil
}

// countingConn counts the plain Read and Write calls that reach a TCP
// connection. The connection is embedded, not wrapped, so that
// net.Buffers still finds on it the vectored write it finds on a bare
// *net.TCPConn: a frame sent that way goes out in one writev(2) and
// never shows up as a Write here.
type countingConn struct {
	*net.TCPConn
	reads, writes atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.TCPConn.Read(p)
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.TCPConn.Write(p)
}

// TestOneWritePerFrameOneReadPerSmallReply pins the frame I/O. Out: a
// frame without a payload is one Write of prefix and header; a frame
// with one hands the writer exactly two buffers — prefix and header, and
// the caller's payload itself, never a copy of it — which a TCP
// connection takes as one vectored write, so no plain Write is seen at
// all. In: a reply carrying a payload of up to 4 KiB is consumed with
// one Read.
func TestOneWritePerFrameOneReadPerSmallReply(t *testing.T) {
	small, large := make([]byte, 4<<10), make([]byte, 256<<10)
	rand.New(rand.NewSource(5)).Read(small)
	rand.New(rand.NewSource(6)).Read(large)

	// What any writer is handed.
	for _, payload := range [][]byte{nil, small, large} {
		var w recordingWriter
		if err := writeFrame(&w, okResponse(), payload); err != nil {
			t.Fatal(err)
		}
		if payload == nil {
			if len(w.writes) != 1 {
				t.Fatalf("a frame without a payload took %d writes", len(w.writes))
			}
			continue
		}
		if len(w.writes) != 2 || len(w.writes[0]) > 64 || len(w.writes[1]) != len(payload) || &w.writes[1][0] != &payload[0] {
			t.Fatalf("a frame with a %d-byte payload was not written as header + the payload by reference (%d writes)", len(payload), len(w.writes))
		}
	}

	// What a TCP connection sees. The far side answers every request with
	// the payload the request's Length asks for.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var server atomic.Pointer[countingConn]
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		cc := &countingConn{TCPConn: c.(*net.TCPConn)}
		server.Store(cc)
		br := bufio.NewReaderSize(cc, frameReadBuffer)
		for {
			var req request
			if _, err := readFrame(br, &req, nil); err != nil {
				return
			}
			if err := writeFrame(cc, okResponse(), large[:req.Length]); err != nil {
				return
			}
		}
	}()
	nc, err := net.DialTimeout("tcp", ln.Addr().String(), shortTimeout)
	if err != nil {
		t.Fatal(err)
	}
	client := &countingConn{TCPConn: nc.(*net.TCPConn)}
	cn := &conn{nc: client, br: bufio.NewReaderSize(client, frameReadBuffer)}
	defer cn.close()
	dst := make([]byte, len(large))
	const rounds = 50
	for _, length := range []int{0, 1, len(small), len(large)} {
		client.reads.Store(0)
		client.writes.Store(0)
		if sc := server.Load(); sc != nil {
			sc.writes.Store(0)
		}
		for i := 0; i < rounds; i++ {
			_, out, err := cn.call(&request{Method: methodDNRead, Length: int64(length)}, nil, shortTimeout, dst)
			if err != nil || !bytes.Equal(out, large[:length]) {
				t.Fatalf("round trip of a %d-byte reply: %v", length, err)
			}
		}
		// Requests carry no payload: one Write each.
		if got := client.writes.Load(); got != rounds {
			t.Errorf("%d requests took %d writes", rounds, got)
		}
		// Replies with a payload leave as one vectored write, which is not
		// a Write; those without are one Write.
		want := int64(0)
		if length == 0 {
			want = rounds
		}
		if got := server.Load().writes.Load(); got != want {
			t.Errorf("%d replies of %d payload bytes took %d plain writes beside the vectored one, want %d", rounds, length, got, want)
		}
		if got := client.reads.Load(); length <= len(small) && got != rounds {
			t.Errorf("%d replies of %d payload bytes were consumed with %d reads, want one each", rounds, length, got)
		}
	}
}

// frameExchange is one dn.read exchange pushed through the frame codec
// alone — request out and in, a 4 KiB reply out and in, no socket — and
// everything it needs, allocated once.
type frameExchange struct {
	wire          bytes.Buffer
	req, gotReq   request
	resp, gotResp response
	payload, dst  []byte
}

func newFrameExchange() *frameExchange {
	x := &frameExchange{payload: make([]byte, 4<<10), dst: make([]byte, 4<<10), resp: response{OK: true}}
	x.req = request{Method: methodDNRead, Block: 12345, Length: int64(len(x.payload))}
	return x
}

func (x *frameExchange) roundTrip() error {
	x.wire.Reset()
	if err := writeFrame(&x.wire, &x.req, nil); err != nil {
		return err
	}
	if _, err := readFrame(&x.wire, &x.gotReq, nil); err != nil {
		return err
	}
	if err := writeFrame(&x.wire, &x.resp, x.payload); err != nil {
		return err
	}
	out, err := readFrame(&x.wire, &x.gotResp, x.dst)
	if err == nil && (x.gotReq != x.req || !x.gotResp.OK || len(out) != len(x.payload)) {
		err = errors.New("frame changed in the round trip")
	}
	return err
}

// BenchmarkFrameRoundTrip times the frame codec by itself, every core
// encoding and decoding at once (the pooled header buffers are what they
// share). allocs/op is the codec's own garbage per exchange.
func BenchmarkFrameRoundTrip(b *testing.B) {
	b.SetBytes(4 << 10)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		x := newFrameExchange()
		for pb.Next() {
			if err := x.roundTrip(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestFrameCodecAllocatesNothingPerExchange: a dn.read and its reply
// pass through writeFrame and readFrame without one allocation — header
// bytes live in pooled buffers, the payload lands in the caller's.
func TestFrameCodecAllocatesNothingPerExchange(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	x := newFrameExchange()
	allocs := testing.AllocsPerRun(200, func() {
		if err := x.roundTrip(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("one exchange through the frame codec allocates %v times, want 0", allocs)
	}
}
