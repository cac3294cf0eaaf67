// The namenode daemon: the metadata authority of the serving layer.
// Clients ask it where blocks live ("blocks"), how a stripe is laid
// out ("stripe", the handshake of a degraded read), and hand it whole
// files to place ("write"). It also runs the repair manager, the
// system's one recovery driver: it raids files, takes the datanodes'
// heartbeats into the manager's failure detector, verifies the replicas
// readers report as rotted and hands the ones it evicts to the manager,
// answers "fixer" with the manager's RepairNow, and reports the
// manager's status.
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

// NameNode is the metadata daemon.
type NameNode struct {
	cluster *hdfs.Cluster
	code    ec.Code
	// dataNodeAddrs snapshots the hosting System's live datanode
	// address table for the handshake.
	dataNodeAddrs func() []string
	mgr           *repairmgr.Manager
	srv           *server
	tele          *nodeTelemetry

	// cDegradedPlans counts stripe-layout requests — each one is a
	// client planning a degraded read (healthy reads never ask).
	cDegradedPlans *telemetry.Counter
	// cReports counts replica reports by the verdict of the namenode's
	// own read of the replica.
	cReports [hdfs.ReplicaNotHeld + 1]*telemetry.Counter
}

// startNameNode launches the namenode on an ephemeral localhost port.
// mgr is the repair manager the namenode runs: dn.heartbeat frames
// feed its failure detector, a replica.report that evicts a replica
// feeds its triage, "fixer" is its RepairNow, and repair.status
// returns its Status. tele may be nil.
func startNameNode(cluster *hdfs.Cluster, code ec.Code, dataNodeAddrs func() []string, mgr *repairmgr.Manager, tele *nodeTelemetry) (*NameNode, error) {
	n := &NameNode{cluster: cluster, code: code, dataNodeAddrs: dataNodeAddrs, mgr: mgr, tele: tele}
	if tele != nil && tele.reg != nil {
		n.cDegradedPlans = tele.reg.Counter("serve_degraded_plans_total")
		for v := range n.cReports {
			n.cReports[v] = tele.reg.Counter(`serve_replica_reports_total{verdict="` + hdfs.ReplicaVerdict(v).String() + `"}`)
		}
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
		resp.DataNodes = n.dataNodeAddrs()
		resp.MachinesPerRack = n.cluster.Topology().MachinesPerRack
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
				Checksum:  b.Checksum,
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
			ws.Positions[i] = wirePos{Block: int64(p.Block), Locations: p.Locations}
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
		rep, err := n.mgr.RepairNow()
		if err != nil {
			return errResponse(err), nil
		}
		return coldResponse(FixReport{
			ScannedBlocks:   rep.ScannedBlocks,
			RepairedStriped: rep.RepairedStriped,
			ReReplicated:    rep.ReReplicated,
			Unrecoverable:   len(rep.Unrecoverable),
		}), nil

	case methodHeartbeat:
		if err := n.mgr.Heartbeat(req.Machine); err != nil {
			return errResponse(err), nil
		}
		return okResponse(), nil

	case methodRepairStatus:
		return coldResponse(n.mgr.Status()), nil

	case methodReportReplica:
		// The reader's word is checked, not taken: only the namenode's
		// own read of the replica can evict it.
		v, err := n.cluster.VerifyReplica(hdfs.BlockID(req.Block), req.Machine)
		if err != nil {
			return errResponse(err), nil
		}
		n.cReports[v].Inc()
		if v == hdfs.ReplicaEvicted {
			n.mgr.ReplicaEvicted(hdfs.BlockID(req.Block))
		}
		return okResponse(), nil

	default:
		return errResponse(fmt.Errorf("serve: namenode: unknown method %q", req.Method)), nil
	}
}

// close severs the listener and every client connection.
func (n *NameNode) close() {
	n.srv.close()
}
