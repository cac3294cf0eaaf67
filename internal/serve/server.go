// Generic framed-RPC server scaffolding shared by the namenode and
// datanode daemons: a localhost TCP listener, one goroutine per
// connection, request/response frames in lockstep, and a Close that
// tears down the listener and every open connection (the mechanism
// behind "kill a datanode mid-read").
package serve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
)

// handlerFunc answers one request. The returned payload rides in the
// response frame's payload section. lend is a recycled buffer the
// handler may size (lentBytes) and read its answer into: the returned
// payload may alias it, because the server has written the response
// frame out before it lends the buffer to anyone else.
type handlerFunc func(req *request, payload []byte, lend *[]byte) (*response, []byte)

// lendPool recycles the buffers lent to handlers across every
// connection of every daemon in the process: one is out only from a
// request's dispatch to the write of its response, so the pool holds
// about as many as there are requests in flight, not one per idle
// connection.
var lendPool = sync.Pool{New: func() any { return new([]byte) }}

// lentBytes returns the lent buffer, empty, with room for n bytes.
func lentBytes(lend *[]byte, n int64) []byte {
	if int64(cap(*lend)) < n {
		*lend = make([]byte, n)
	}
	return (*lend)[:0]
}

// server is one TCP daemon.
type server struct {
	ln     net.Listener
	handle handlerFunc
	tele   *nodeTelemetry // nil disables instrumentation and tracing
	// maxPayload is the longest request payload the daemon reads: a
	// longer one is refused on the frame's prefix and the connection
	// dropped.
	maxPayload uint32

	mu     sync.Mutex
	conns  map[net.Conn]bool
	closed bool
	wg     sync.WaitGroup
}

// errTracingDisabled answers debug.trace on an uninstrumented daemon.
var errTracingDisabled = errors.New("serve: telemetry disabled")

// newServer listens on an ephemeral localhost port and starts the
// accept loop. tele may be nil (no instrumentation).
func newServer(handle handlerFunc, tele *nodeTelemetry, maxPayload uint32) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{ln: ln, handle: handle, tele: tele, maxPayload: maxPayload, conns: make(map[net.Conn]bool)}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// addr returns the listen address ("127.0.0.1:port").
func (s *server) addr() string { return s.ln.Addr().String() }

func (s *server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(c)
	}
}

// serveConn answers frames in lockstep until the connection dies or the
// server closes.
func (s *server) serveConn(c net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()
	br := bufio.NewReaderSize(c, frameReadBuffer)
	// One request header serves the connection: decoding resets it, and
	// no handler keeps it past its return.
	var req request
	for {
		n, err := readHeader(br, &req, s.maxPayload)
		if err != nil {
			return
		}
		payload, err := readPayload(br, n, nil)
		if err != nil {
			return
		}
		if !s.answer(c, &req, payload) {
			return
		}
	}
}

// answer dispatches one request and writes its response frame to the
// socket, reporting whether the connection is still good. The buffer
// lent to the handler goes back to the pool only here, after the write:
// out may be a view of it, and writeFrame hands it to the kernel as it
// stands.
func (s *server) answer(c net.Conn, req *request, payload []byte) bool {
	lend := lendPool.Get().(*[]byte)
	defer lendPool.Put(lend)
	resp, out := s.dispatch(req, payload, lend)
	return writeFrame(c, resp, out) == nil
}

// safeHandle runs the handler with a recover barrier: a panic on one
// request (a validation gap, a hostile frame a guard missed) becomes a
// remote error on that connection instead of taking down the whole
// process — the namenode and every datanode daemon share it.
func (s *server) safeHandle(req *request, payload []byte, lend *[]byte) (resp *response, out []byte) {
	defer func() {
		if r := recover(); r != nil {
			resp, out = errResponse(fmt.Errorf("serve: internal error handling %q: %v", req.Method, r)), nil
		}
	}()
	resp, out = s.handle(req, payload, lend)
	return resp, out
}

// close stops the listener and severs every open connection. In-flight
// requests are cut off mid-frame — exactly what a machine failure looks
// like to a client.
func (s *server) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}
