package serve

import (
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"

	"repro/internal/extent"
	"repro/internal/hdfs"
)

// sendfileWorks says this system has sendfile(2) with an explicit
// offset, so a datanode sends marked whole-block reads from the file.
const sendfileWorks = true

// maxSendChunk bounds one sendfile(2) call, below the count Linux
// truncates a transfer to.
const maxSendChunk = 1 << 30

// replicaSender writes the sent replies of one server connection: a
// frame whose payload is a replica sent from its segment file by
// sendfile(2), never through user space. It is bound once, at the
// connection's first sent reply — the socket's RawConn looked up, and
// the callbacks the store and the poller run made method values of it
// — and each reply passes its state through its fields, so a sent
// reply allocates nothing. One connection answers in lockstep, so one
// sender serves one reply at a time.
type replicaSender struct {
	c     net.Conn
	raw   syscall.RawConn         // the socket's; nil until bound
	send  extent.SendFunc         // rs.sendFile
	write func(sock uintptr) bool // rs.writePayload

	// The reply in flight: the read, its reply's header, and whether
	// its frame has begun.
	req     *request
	hdr     frameHeader
	started bool

	// The payload in flight, for writePayload: the file, the next
	// offset in it, the bytes left and the send's error.
	fd     uintptr
	off, n int64
	err    error
}

// reply writes a response whose payload is a replica sent from its
// file, the read's whole length of it. The store hands over the file
// with its own lock released, so no store lock is held across the
// socket write. A send that fails before the frame's first byte — the
// replica gone, its segment retired, a length other than the read's —
// can still be answered with its error; one that fails after it
// (started) cuts the frame short, and the connection is dropped.
func (rs *replicaSender) reply(req *request, resp *response) (started bool, err error) {
	if rs.raw == nil {
		sc, ok := rs.c.(syscall.Conn)
		if !ok {
			return false, errors.New("serve: connection has no descriptor to send a file on")
		}
		if rs.raw, err = sc.SyscallConn(); err != nil {
			return false, err
		}
		rs.send, rs.write = rs.sendFile, rs.writePayload
	}
	rs.req, rs.hdr, rs.started = req, resp, false
	err = resp.send(hdfs.BlockID(req.Block), rs.send)
	rs.req, rs.hdr = nil, nil
	return rs.started, err
}

// sendFile is the reply's extent.SendFunc: it writes one frame whose
// payload is the n bytes at offset off of the file fd, the prefix and
// header in one write, then the payload by sendfile(2) from the file to
// the socket. The socket's poller waits out a full send buffer. An
// error after the header left means a frame cut short, which only a
// dropped connection can tell the reader.
func (rs *replicaSender) sendFile(fd uintptr, off, n int64) error {
	if n != rs.req.Length {
		return fmt.Errorf("serve: replica of block %d holds %d bytes, the read asks for %d", rs.req.Block, n, rs.req.Length)
	}
	rs.started = true
	fb := frameBufs.Get().(*frameBuf)
	defer fb.release()
	b, err := fb.encode(rs.hdr, n)
	if err != nil {
		return err
	}
	if _, err := rs.c.Write(b); err != nil {
		return err
	}
	rs.fd, rs.off, rs.n, rs.err = fd, off, n, nil
	if err := rs.raw.Write(rs.write); err != nil {
		return err
	}
	return rs.err
}

// writePayload is the socket's RawConn.Write callback: it sends what is
// left of the payload, and reports false to wait until the socket can
// take more.
func (rs *replicaSender) writePayload(sock uintptr) bool {
	for rs.n > 0 {
		k, err := syscall.Sendfile(int(sock), int(rs.fd), &rs.off, int(min(rs.n, maxSendChunk)))
		if k > 0 {
			rs.n -= int64(k)
		}
		switch {
		case err == syscall.EAGAIN:
			return false // wait until the socket can take more
		case err == syscall.EINTR:
		case err != nil:
			rs.err = err
			return true
		case k == 0:
			rs.err = io.ErrUnexpectedEOF // the file ends before the payload does
			return true
		}
	}
	return true
}
