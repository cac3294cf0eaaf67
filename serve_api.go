// The networked serving layer: the live TCP cluster (namenode +
// datanode daemons) and the degraded-read client.

package repro

import "repro/internal/serve"

// ServeSystem is a live serving cluster: a MiniHDFS metadata plane
// (HDFSConfig.Shards metadata shards) behind a namenode daemon and
// per-machine datanode daemons on localhost TCP. It doubles as the
// failure injector: KillDataNode severs a datanode's connections
// mid-frame and fails the machine; RestartDataNode brings it back on a
// fresh port.
type ServeSystem = serve.System

// ServeClient is a serving-layer client. Its read path rotates across
// replicas and transparently reconstructs missing blocks through the
// codec's repair plan, fetching helper ranges over the wire.
type ServeClient = serve.Client

// ServeOption configures a serving system at Start.
type ServeOption = serve.Option

// StartServeSystem builds the storage cluster and brings up its
// namenode and datanode daemons (plus, with WithRepairManager, the
// repair control plane). Close the system to release the listeners.
func StartServeSystem(cfg HDFSConfig, opts ...ServeOption) (*ServeSystem, error) {
	return serve.Start(cfg, opts...)
}

// ServeClientOption configures a serving-layer client at dial time.
type ServeClientOption = serve.ClientOption

// WithPartialSumRepair makes a client's degraded reads run through the
// distributed partial-sum pipeline: the codec's linear repair plan is
// shipped to the helpers as a rack-aware fold tree and the client
// downloads ONE folded block instead of ~k helper ranges. Failures
// fall back to the conventional fan-in transparently.
func WithPartialSumRepair() ServeClientOption { return serve.WithPartialSumRepair() }

// DialServe connects a client to a serving cluster's namenode. code
// must match the cluster's codec: degraded reads decode locally (or,
// with WithPartialSumRepair, in the helper tree).
func DialServe(nameAddr string, code Codec, opts ...ServeClientOption) (*ServeClient, error) {
	return serve.Dial(nameAddr, code, opts...)
}
