//go:build !linux

package serve

import (
	"errors"
	"net"
)

// sendfileWorks is false off Linux: a datanode answers every read by
// reading and checking the replica, and never sets send.
const sendfileWorks = false

// sendFrame is never called off Linux (sendfileWorks).
func sendFrame(net.Conn, frameHeader, uintptr, int64, int64) error {
	return errors.ErrUnsupported
}
