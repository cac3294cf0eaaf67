package serve

import (
	"errors"
	"io"
	"net"
	"syscall"
)

// sendfileWorks says this system has sendfile(2) with an explicit
// offset, so a datanode sends marked whole-block reads from the file.
const sendfileWorks = true

// maxSendChunk bounds one sendfile(2) call, below the count Linux
// truncates a transfer to.
const maxSendChunk = 1 << 30

// sendFrame writes one frame whose payload is the n bytes at offset off
// of the file fd: the prefix and header in one write, then the payload
// by sendfile(2) from the file to the socket, never through user space.
// The socket's poller waits out a full send buffer. An error after the
// header left means a frame cut short, which only a dropped connection
// can tell the reader.
func sendFrame(c net.Conn, hdr frameHeader, fd uintptr, off, n int64) error {
	sc, ok := c.(syscall.Conn)
	if !ok {
		return errors.New("serve: connection has no descriptor to send a file on")
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return err
	}
	fb := frameBufs.Get().(*frameBuf)
	defer fb.release()
	b, err := fb.encode(hdr, n)
	if err != nil {
		return err
	}
	if _, err := c.Write(b); err != nil {
		return err
	}
	var sendErr error
	err = raw.Write(func(sock uintptr) bool {
		for n > 0 {
			k, err := syscall.Sendfile(int(sock), int(fd), &off, int(min(n, maxSendChunk)))
			if k > 0 {
				n -= int64(k)
			}
			switch {
			case err == syscall.EAGAIN:
				return false // wait until the socket can take more
			case err == syscall.EINTR:
			case err != nil:
				sendErr = err
				return true
			case k == 0:
				sendErr = io.ErrUnexpectedEOF // the file ends before the payload does
				return true
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	return sendErr
}
