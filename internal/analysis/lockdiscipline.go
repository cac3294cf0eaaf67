package analysis

import (
	"go/ast"
	"go/token"
	"sort"
)

// lockDiscipline enforces the metadata-mutex rules of internal/hdfs.
// The mutex is a metadata shard's (metaShard.mu); the plane above the
// shards, Cluster, has none of its own.
//
//  1. Every acquisition of a shard's metadata mutex goes through the
//     instrumented lockMeta/rlockMeta helpers (which charge lock-wait
//     to the contention counters LockStats reports). A raw
//     recv.mu.Lock()/recv.mu.RLock() inside a metaShard method is a
//     finding, except inside the helpers themselves.
//  2. The PR 3 phased-fixer rule: no engine execution or codec
//     encode/decode call may run while the metadata lock is held. A
//     fixer pass plans under the lock, decodes with it released, and
//     applies under the lock; holding it across a decode serialises
//     every foreground read behind reconstruction.
//  3. Confinement: the helpers are called only from metaShard methods.
//     The plane reaches a shard's lock through the shard's methods, so
//     rules 1 and 2 — which key on the method receiver — see every
//     acquisition there is.
//
// Unlock/RUnlock calls are not findings — only acquisitions are
// instrumented — and per-datanode leaf locks (node.mu) are out of
// scope: rules 1 and 2 match only the metadata mutex of the enclosing
// metaShard method's receiver.
type lockDiscipline struct{}

// LockDiscipline returns the lockdiscipline analyzer.
func LockDiscipline() Analyzer { return lockDiscipline{} }

func (lockDiscipline) Name() string { return "lockdiscipline" }

func (lockDiscipline) Doc() string {
	return "hdfs metadata mutex: acquire via lockMeta/rlockMeta only, and never decode while holding it"
}

// lockTargetPath is the package the discipline applies to.
const lockTargetPath = "repro/internal/hdfs"

// cacheTargetPath is the block-cache package, which carries its own
// confinement rule (see checkCacheFunc).
const cacheTargetPath = "repro/internal/cache"

// cacheShardType is the only receiver type allowed to touch a cache
// shard's mutex.
const cacheShardType = "shard"

// lockRecvType is the receiver type whose mu is the metadata mutex: the
// per-shard metadata type.
const lockRecvType = "metaShard"

// lockHelperFuncs are the blessed acquisition helpers.
var lockHelperFuncs = map[string]bool{"lockMeta": true, "rlockMeta": true}

// decodeCalls are the engine-execution and codec calls that must never
// run under the metadata lock (Fold, FoldTree and Repair are the shared
// plan executor of internal/engine).
var decodeCalls = map[string]bool{
	"RunRepairs":         true,
	"RunEncodes":         true,
	"RunTasks":           true,
	"Encode":             true,
	"Decode":             true,
	"ExecuteRepair":      true,
	"ExecuteMultiRepair": true,
	"Fold":               true,
	"FoldTree":           true,
	"Repair":             true,
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
			recv, recvType := recvInfo(fd)
			if recv == "" || recvType != lockRecvType {
				diags = append(diags, a.checkConfined(pkg, fd)...)
				continue
			}
			diags = append(diags, a.checkFunc(pkg, fd, recv)...)
		}
	}
	return diags
}

// checkConfined flags a lockMeta/rlockMeta call in a function that is
// not a metaShard method (rule 3).
func (a lockDiscipline) checkConfined(pkg *Package, fd *ast.FuncDecl) []Diagnostic {
	var diags []Diagnostic
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && lockHelperFuncs[calleeName(call)] && !isBuiltinLike(call) {
			diags = append(diags, diag(pkg, a.Name(), call.Pos(),
				"%s outside a %s method: the plane takes a shard's metadata lock through the shard's methods, where the lock rules are checked", calleeName(call), lockRecvType))
		}
		return true
	})
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
					} else if name := calleeName(x); decodeCalls[name] && !isBuiltinLike(x) {
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
	kind int // 0 acquire, 1 release, 2 decode call
	name string
}

// checkFunc walks one metaShard method. Each function literal inside it
// is simulated as its own scope (a closure's body runs later, under
// whatever lock state its caller establishes), but the raw-acquisition
// rule applies everywhere.
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
					if name := calleeName(x); decodeCalls[name] && !isBuiltinLike(x) {
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
						"%s called while holding the metadata mutex: plan under the lock, decode with it released, apply under the lock", e.name))
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
