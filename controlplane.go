// The autonomous repair control plane: the in-namenode repair manager
// (failure detection, risk-prioritised repair queue, throttling).

package repro

import (
	"repro/internal/repairmgr"
	"repro/internal/serve"
)

// RepairManagerConfig parameterises the autonomous repair control
// plane: detector timeouts (suspect / grace window), the control tick,
// the cross-rack repair byte cap, starvation aging, and background
// scrub scheduling.
type RepairManagerConfig = repairmgr.Config

// DefaultRepairManagerConfig returns production-flavoured control-
// plane settings.
func DefaultRepairManagerConfig() RepairManagerConfig { return repairmgr.DefaultConfig() }

// WithRepairManager runs the autonomous repair control plane inside
// the serving namenode: datanode daemons heartbeat it, dead nodes'
// stripes repair themselves through a risk-prioritised queue behind a
// bandwidth throttle, and kill-then-restart inside the grace window
// never triggers repair. On a sharded metadata plane the manager runs
// one repair lane per shard (per-shard queue and registry) under a
// single machine-level failure detector and a shared bandwidth
// throttle. The repair.status RPC (ServeClient.RepairStatus) exposes
// node states, queue depth, and the completion log.
func WithRepairManager(cfg RepairManagerConfig) ServeOption { return serve.WithRepairManager(cfg) }
