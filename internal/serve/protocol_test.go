package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
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

// TestReadFrameCorruptHeader: declared lengths fine, JSON garbage.
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
