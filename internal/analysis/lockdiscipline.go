package analysis

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// lockDiscipline enforces the metadata-mutex rules of internal/hdfs.
// The mutex is the cluster's (Cluster.mu).
//
//  1. Every acquisition of the metadata mutex goes through the
//     instrumented lockMeta/rlockMeta helpers (which charge lock-wait
//     to the contention counters LockStats reports). A raw
//     recv.mu.Lock()/recv.mu.RLock() inside a Cluster method is a
//     finding, except inside the helpers themselves.
//  2. The phased-mutation rule: no engine execution, codec
//     encode/decode or replica store (storeBlock, storeChecked) may run
//     while the metadata lock is held. A fixer pass plans under the
//     lock, decodes with it released, and applies under the lock; a
//     write or raid plans under it, encodes and stores with it
//     released, and commits under it. Holding it across a decode or a disk write serialises
//     every foreground read behind that I/O. A Cluster method named
//     *Locked is documented to be entered with the lock held, so its
//     body is replayed from the held state: the rule sees a call one
//     frame below the lockMeta that guards it.
//
// Unlock/RUnlock calls are not findings — only acquisitions are
// instrumented — and per-datanode leaf locks (node.mu) are out of
// scope: both rules match only the metadata mutex of the enclosing
// Cluster method's receiver.
type lockDiscipline struct{}

// LockDiscipline returns the lockdiscipline analyzer.
func LockDiscipline() Analyzer { return lockDiscipline{} }

func (lockDiscipline) Name() string { return "lockdiscipline" }

func (lockDiscipline) Doc() string {
	return "hdfs metadata mutex: acquire via lockMeta/rlockMeta only, and never decode or store while holding it"
}

// lockTargetPath is the package the discipline applies to.
const lockTargetPath = "repro/internal/hdfs"

// cacheTargetPath is the block-cache package, which carries its own
// confinement rule (see checkCacheFunc).
const cacheTargetPath = "repro/internal/cache"

// cacheShardType is the only receiver type allowed to touch a cache
// shard's mutex.
const cacheShardType = "shard"

// lockRecvType is the receiver type whose mu is the metadata mutex.
const lockRecvType = "Cluster"

// lockHelperFuncs are the blessed acquisition helpers.
var lockHelperFuncs = map[string]bool{"lockMeta": true, "rlockMeta": true}

// unlockedCalls are the engine-execution, codec and replica-store calls
// that must never run under the metadata lock (Fold and Repair are the
// shared plan executor of internal/engine; decodeAroundRot is hdfs's
// codec decode around rotted helpers; storeBlock and storeChecked are a
// datanode's disk write).
var unlockedCalls = map[string]bool{
	"decodeAroundRot":    true,
	"RunRepairs":         true,
	"RunTasks":           true,
	"Encode":             true,
	"Decode":             true,
	"ExecuteRepair":      true,
	"ExecuteMultiRepair": true,
	"Fold":               true,
	"Repair":             true,
	"storeBlock":         true,
	"storeChecked":       true,
}

func (a lockDiscipline) Check(pkg *Package) []Diagnostic {
	switch pkg.ImportPath {
	case lockTargetPath:
	case cacheTargetPath:
		return a.checkCachePkg(pkg)
	default:
		return nil
	}
	var diags []Diagnostic
	for _, f := range pkg.Files {
		if f.IsTest {
			continue
		}
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if recv, recvType := recvInfo(fd); recv != "" && recvType == lockRecvType {
				diags = append(diags, a.checkFunc(pkg, fd, recv)...)
			}
		}
	}
	return diags
}

// checkCachePkg applies the cache package's confinement rule: the
// per-shard mutex is the cache's only lock, and every acquisition of
// it lives inside a shard method — the hot Get/Put path stays
// reasoned-about in one type, and the enclosing Cache can never
// deadlock two shards by taking their locks in ad-hoc order. On top
// of that, no codec/engine decode call may run under a shard lock:
// the cache is consulted on every block read, and a decode under its
// mutex would serialise the read path behind reconstruction exactly
// as the hdfs metadata rule forbids.
func (a lockDiscipline) checkCachePkg(pkg *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range pkg.Files {
		if f.IsTest {
			continue
		}
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			recv, recvType := recvInfo(fd)
			diags = append(diags, a.checkCacheFunc(pkg, fd, recv, recvType)...)
		}
	}
	return diags
}

// checkCacheFunc walks one cache-package function. Outside shard
// methods any ".mu." lock operation is a finding; inside them the
// hdfs-style scope replay flags decode calls made while the shard
// mutex is held.
func (a lockDiscipline) checkCacheFunc(pkg *Package, fd *ast.FuncDecl, recv, recvType string) []Diagnostic {
	var diags []Diagnostic
	inShard := recv != "" && recvType == cacheShardType
	muLock := recv + ".mu.Lock"
	muRLock := recv + ".mu.RLock"
	muUnlock := recv + ".mu.Unlock"
	muRUnlock := recv + ".mu.RUnlock"

	scopes := map[token.Pos][]lockEvent{}
	var scopeOf func(n ast.Node, scope token.Pos, inDefer bool)
	scopeOf = func(root ast.Node, scope token.Pos, inDefer bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				if x.Pos() == scope {
					return true
				}
				scopeOf(x, x.Pos(), false)
				return false
			case *ast.DeferStmt:
				scopeOf(x.Call, scope, true)
				return false
			case *ast.CallExpr:
				path := calleePath(x)
				if !inShard && isMuAcquire(path) {
					diags = append(diags, diag(pkg, a.Name(), x.Pos(),
						"cache shard mutex operation %s outside a %s method: all shard locking is confined to %s receivers", path, cacheShardType, cacheShardType))
					return true
				}
				switch path {
				case muLock, muRLock:
					if !inDefer {
						scopes[scope] = append(scopes[scope], lockEvent{x.Pos(), 0, path})
					}
				case muUnlock, muRUnlock:
					if !inDefer {
						scopes[scope] = append(scopes[scope], lockEvent{x.Pos(), 1, path})
					}
				default:
					if inShard && isMuAcquire(path) {
						// A shard method touching any mutex but its own
						// receiver's reopens the cross-shard deadlock the
						// confinement exists to rule out.
						diags = append(diags, diag(pkg, a.Name(), x.Pos(),
							"%s method operates on a foreign mutex (%s): a shard touches only its own mu", cacheShardType, path))
					} else if name := calleeName(x); unlockedCalls[name] && !isBuiltinLike(x) {
						scopes[scope] = append(scopes[scope], lockEvent{x.Pos(), 2, name})
					}
				}
			}
			return true
		})
	}
	scopeOf(fd.Body, fd.Body.Pos(), false)
	if !inShard {
		return diags
	}
	for _, events := range scopes {
		sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
		depth := 0
		for _, e := range events {
			switch e.kind {
			case 0:
				depth++
			case 1:
				if depth > 0 {
					depth--
				}
			case 2:
				if depth > 0 {
					diags = append(diags, diag(pkg, a.Name(), e.pos,
						"%s called while holding a cache shard mutex: the read path's cache consult must never wait on reconstruction", e.name))
				}
			}
		}
	}
	return diags
}

// isMuAcquire reports a selector path that is a mutex lock or unlock
// on a field named mu (x.mu.Lock, s.c.mu.RLock, ...).
func isMuAcquire(path string) bool {
	for _, suffix := range []string{".mu.Lock", ".mu.RLock", ".mu.Unlock", ".mu.RUnlock"} {
		if len(path) >= len(suffix) && path[len(path)-len(suffix):] == suffix {
			return true
		}
	}
	return false
}

// lockEvent is one lock-relevant point in a function body, replayed in
// source order to simulate the held/released state.
type lockEvent struct {
	pos  token.Pos
	kind int // 0 acquire, 1 release, 2 a call the lock must not cover
	name string
}

// checkFunc walks one Cluster method. Each function literal inside it
// is simulated as its own scope (a closure's body runs later, under
// whatever lock state its caller establishes), but the raw-acquisition
// rule applies everywhere. The body of a *Locked method starts with the
// lock held.
func (a lockDiscipline) checkFunc(pkg *Package, fd *ast.FuncDecl, recv string) []Diagnostic {
	var diags []Diagnostic
	helper := lockHelperFuncs[fd.Name.Name]
	muLock := recv + ".mu.Lock"
	muRLock := recv + ".mu.RLock"
	muUnlock := recv + ".mu.Unlock"
	muRUnlock := recv + ".mu.RUnlock"
	helperLock := recv + ".lockMeta"
	helperRLock := recv + ".rlockMeta"

	// Collect each scope's events. Scope 0 is the method body; every
	// FuncLit opens a new scope keyed by its position.
	scopes := map[token.Pos][]lockEvent{}
	var scopeOf func(n ast.Node, scope token.Pos, inDefer bool)
	scopeOf = func(root ast.Node, scope token.Pos, inDefer bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				if x.Pos() == scope {
					return true // the scope's own literal: walk its body
				}
				scopeOf(x, x.Pos(), false)
				return false
			case *ast.DeferStmt:
				// A deferred Unlock releases at function exit, not at
				// its source position: record nothing, the lock stays
				// held for the rest of the scope.
				scopeOf(x.Call, scope, true)
				return false
			case *ast.CallExpr:
				path := calleePath(x)
				switch path {
				case muLock, muRLock:
					if !helper {
						diags = append(diags, diag(pkg, a.Name(), x.Pos(),
							"raw %s: metadata-mutex acquisitions go through %s.lockMeta/%s.rlockMeta so lock waits are instrumented", path, recv, recv))
					}
					if !inDefer {
						scopes[scope] = append(scopes[scope], lockEvent{x.Pos(), 0, path})
					}
				case helperLock, helperRLock:
					if !inDefer {
						scopes[scope] = append(scopes[scope], lockEvent{x.Pos(), 0, path})
					}
				case muUnlock, muRUnlock:
					if !inDefer {
						scopes[scope] = append(scopes[scope], lockEvent{x.Pos(), 1, path})
					}
				default:
					if name := calleeName(x); unlockedCalls[name] && !isBuiltinLike(x) {
						scopes[scope] = append(scopes[scope], lockEvent{x.Pos(), 2, name})
					}
				}
			}
			return true
		})
	}
	scopeOf(fd.Body, fd.Body.Pos(), false)

	// Replay each scope in source order. The walk above visits nested
	// statements in position order for straight-line code; branches
	// make this an over-approximation (an Unlock inside an if arm
	// clears the simulated state), which in practice matches how the
	// fixer code is written: lock...unlock sequences are linear.
	for scope, events := range scopes {
		sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
		depth := 0
		if scope == fd.Body.Pos() && strings.HasSuffix(fd.Name.Name, "Locked") {
			depth = 1
		}
		for _, e := range events {
			switch e.kind {
			case 0:
				depth++
			case 1:
				if depth > 0 {
					depth--
				}
			case 2:
				if depth > 0 {
					diags = append(diags, diag(pkg, a.Name(), e.pos,
						"%s called while holding the metadata mutex: plan under the lock, decode, encode and store with it released, commit under the lock", e.name))
				}
			}
		}
	}
	return diags
}

// isBuiltinLike filters calls whose callee is a lone identifier naming
// a decode-set member — those are local helpers, not engine/codec
// method calls, and the set only contains method names.
func isBuiltinLike(call *ast.CallExpr) bool {
	_, isIdent := call.Fun.(*ast.Ident)
	return isIdent
}
