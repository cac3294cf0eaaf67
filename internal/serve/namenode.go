// The namenode daemon: the metadata authority of the serving layer.
// Clients ask it where blocks live ("blocks"), how a stripe is laid
// out ("stripe", the handshake of a degraded read), and hand it whole
// files to place ("write"). It also fronts the control plane — raiding
// files, driving a block-fixer pass, and failing/restoring machines —
// so a failure-injecting load generator needs nothing but the wire
// protocol.
package serve

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/ec"
	"repro/internal/hdfs"
	"repro/internal/repairmgr"
	"repro/internal/telemetry"
)

// repairStatusOf renders a manager status as clients see it: detector
// states and fix kinds as strings.
func repairStatusOf(st repairmgr.Status) *RepairStatus {
	out := &RepairStatus{
		QueueDepth:      st.QueueDepth,
		QueueByErasures: st.QueueByErasures,
		Paused:          st.Paused,
		DegradedStripes: st.DegradedStripes,
		DegradedBlocks:  st.DegradedBlocks,
		RepairsDone:     st.RepairsDone,
		RepairedBytes:   st.RepairedBytes,
		Unrecoverable:   st.Unrecoverable,
		AvoidedRepairs:  st.AvoidedRepairs,
		AvoidedBytes:    st.AvoidedRepairBytes,
		LostBlocks:      st.LostBlocks,
		ScrubSlices:     st.ScrubSlices,
		ScrubReplicas:   st.ScrubbedReplicas,
		ScrubCorrupt:    st.ScrubCorrupt,
		ThrottleBps:     st.ThrottleBytesPerSec,

		UptimeSeconds:    st.UptimeSeconds,
		SecondsSincePoll: st.SecondsSincePoll,
		PollCount:        st.PollCount,
	}
	for _, n := range st.Nodes {
		out.Nodes = append(out.Nodes, RepairNodeState{Machine: n.Machine, State: n.State.String()})
	}
	for _, c := range st.Completed {
		out.Completed = append(out.Completed, CompletedFix{
			Seq:           c.Seq,
			Kind:          c.Kind.String(),
			Stripe:        int64(c.Stripe),
			Block:         int64(c.Block),
			Erasures:      c.Erasures,
			Bytes:         c.Bytes,
			WaitSeconds:   c.WaitSeconds,
			Unrecoverable: c.Unrecoverable,
		})
	}
	return out
}

// control is what the namenode needs from the System hosting it:
// the live datanode address table and machine-level failure control
// that kills or restarts the daemons along with the stored state.
type control interface {
	dataNodeAddrs() []string
	killDataNode(machine int) error
	restartDataNode(machine int) error
}

// NameNode is the metadata daemon.
type NameNode struct {
	cluster hdfs.Metadata
	code    ec.Code
	bs      int64
	ctl     control
	mgr     *repairmgr.Manager // nil when the control plane is disabled
	srv     *server
	tele    *nodeTelemetry

	// cDegradedPlans counts stripe-layout requests — each one is a
	// client planning a degraded read (healthy reads never ask).
	cDegradedPlans *telemetry.Counter
}

// startNameNode launches the namenode on an ephemeral localhost port.
// mgr, when non-nil, is the repair control plane the namenode fronts:
// dn.heartbeat frames feed its failure detector and repair.status
// exposes its queue/node/throttle state. tele may be nil.
func startNameNode(cluster hdfs.Metadata, code ec.Code, blockSize int64, ctl control, mgr *repairmgr.Manager, tele *nodeTelemetry) (*NameNode, error) {
	n := &NameNode{cluster: cluster, code: code, bs: blockSize, ctl: ctl, mgr: mgr, tele: tele}
	if tele != nil && tele.reg != nil {
		n.cDegradedPlans = tele.reg.Counter("serve_degraded_plans_total")
	}
	srv, err := newServer(n.handle, tele, maxPayloadBytes)
	if err != nil {
		return nil, err
	}
	n.srv = srv
	return n, nil
}

// Addr returns the namenode's listen address.
func (n *NameNode) Addr() string { return n.srv.addr() }

func (n *NameNode) handle(req *request, payload []byte, _ *[]byte) (*response, []byte) {
	switch req.Method {
	case methodInfo:
		resp := okResponse()
		resp.Codec = n.code.Name()
		resp.BlockSize = n.bs
		resp.DataNodes = n.ctl.dataNodeAddrs()
		resp.MachinesPerRack = n.cluster.Topology().MachinesPerRack
		return resp, nil

	case methodStat:
		info, err := n.cluster.Stat(req.Name)
		if err != nil {
			return errResponse(err), nil
		}
		resp := okResponse()
		resp.Size = info.Size
		resp.Raided = info.Raided
		return resp, nil

	case methodBlocks:
		size, blocks, err := n.cluster.FileBlocks(req.Name)
		if err != nil {
			return errResponse(err), nil
		}
		resp := okResponse()
		resp.Size = size
		resp.Blocks = make([]wireBlock, len(blocks))
		for i, b := range blocks {
			resp.Blocks[i] = wireBlock{
				ID:        int64(b.ID),
				Size:      b.Size,
				Stripe:    int64(b.Stripe),
				StripePos: b.StripePos,
				Locations: b.Locations,
			}
		}
		return resp, nil

	case methodStripe:
		n.cDegradedPlans.Inc()
		d, err := n.cluster.Stripe(hdfs.StripeID(req.Stripe))
		if err != nil {
			return errResponse(err), nil
		}
		ws := &wireStripe{ID: int64(d.ID), ShardSize: d.ShardSize, Positions: make([]wirePos, len(d.Positions))}
		for i, p := range d.Positions {
			ws.Positions[i] = wirePos{Block: int64(p.Block), Size: p.Size, Locations: p.Locations}
		}
		resp := okResponse()
		resp.Stripe = ws
		return resp, nil

	case methodWrite:
		// Idempotent: a client that lost the response frame mid-flight
		// (connection severed after the server applied the write)
		// retries the identical request; re-applying an already-stored
		// file with identical content is success, not ErrFileExists.
		if err := n.cluster.WriteFile(req.Name, payload); err != nil {
			if errors.Is(err, hdfs.ErrFileExists) {
				if existing, rerr := n.cluster.ReadFile(req.Name); rerr == nil && bytes.Equal(existing, payload) {
					return okResponse(), nil
				}
			}
			return errResponse(err), nil
		}
		return okResponse(), nil

	case methodRaid:
		// Idempotent for the same reason: "ensure raided".
		if err := n.cluster.RaidFile(req.Name); err != nil && !errors.Is(err, hdfs.ErrAlreadyRaided) {
			return errResponse(err), nil
		}
		return okResponse(), nil

	case methodFixer:
		rep, err := n.cluster.RunBlockFixer()
		if err != nil {
			return errResponse(err), nil
		}
		return coldResponse(FixReport{
			ScannedBlocks:   rep.ScannedBlocks,
			RepairedStriped: rep.RepairedStriped,
			ReReplicated:    rep.ReReplicated,
			Unrecoverable:   len(rep.Unrecoverable),
		}), nil

	case methodFail:
		if err := n.ctl.killDataNode(req.Machine); err != nil {
			return errResponse(err), nil
		}
		return okResponse(), nil

	case methodRestore:
		if err := n.ctl.restartDataNode(req.Machine); err != nil {
			return errResponse(err), nil
		}
		return okResponse(), nil

	case methodHeartbeat:
		if n.mgr == nil {
			return errResponse(errors.New("serve: repair manager disabled")), nil
		}
		if err := n.mgr.Heartbeat(req.Machine); err != nil {
			return errResponse(err), nil
		}
		return okResponse(), nil

	case methodRepairStatus:
		if n.mgr == nil {
			return errResponse(errors.New("serve: repair manager disabled")), nil
		}
		return coldResponse(repairStatusOf(n.mgr.Status())), nil

	default:
		return errResponse(fmt.Errorf("serve: namenode: unknown method %q", req.Method)), nil
	}
}

// DebugAddr returns the namenode's debug HTTP address ("" when the
// system runs without telemetry HTTP listeners).
func (n *NameNode) DebugAddr() string { return n.tele.debugAddr() }

// close severs the listener and every client connection.
func (n *NameNode) close() {
	n.srv.close()
	n.tele.close()
}
