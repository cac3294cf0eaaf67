//go:build !linux

package serve

import (
	"errors"
	"net"
)

// sendfileWorks is false off Linux: a datanode answers every read by
// reading and checking the replica, and never sets send.
const sendfileWorks = false

// replicaSender is never asked to reply off Linux (sendfileWorks).
type replicaSender struct{ c net.Conn }

func (*replicaSender) reply(*request, *response) (bool, error) {
	return false, errors.ErrUnsupported
}
