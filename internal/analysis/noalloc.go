package analysis

import (
	"go/ast"
)

// noAlloc keeps the byte-granular hot paths allocation-free: the
// GF(256) fused kernels (every function in internal/gf256), the
// engine's per-job fold loops, the repair executor's fold loop, the
// pooled block read under it and the serving wire's frame writer. An
// append, make, new, map literal, or closure inside them turns a
// cache-resident multiply-accumulate into a GC touchpoint; per-call
// garbage in MulAddSlices is multiplied by every stripe of every repair
// batch, and in writeFrame by every message.
//
// Allocations that ARE the design — a scratch arena refilling its
// pool, per-batch worker setup — carry a //repolint:ignore noalloc
// with the justification, so the exceptions are enumerated in the
// code instead of assumed.
type noAlloc struct{}

// NoAlloc returns the noalloc analyzer.
func NoAlloc() Analyzer { return noAlloc{} }

func (noAlloc) Name() string { return "noalloc" }

func (noAlloc) Doc() string {
	return "gf256 kernels, engine fold loops and the frame writer stay allocation-free (no append/make/new/map/closure)"
}

// noAllocScopes maps package import path → the functions held to the
// rule. An empty set means every function in the package.
var noAllocScopes = map[string]map[string]bool{
	// The whole field-arithmetic package is kernel code.
	"repro/internal/gf256": nil,
	// The engine's per-job fold paths: runRepair runs once per stripe
	// of every batch, and Scratch.Bytes is the arena handing a buffer
	// to every survivor fetch — the two places where a stray per-call
	// allocation multiplies by the repair volume. Batch-granular setup
	// (RunRepairs' result slice, forEach's worker channel) is outside
	// the rule: it amortises over the whole batch.
	"repro/internal/engine": {
		"runRepair": true,
		"Bytes":     true,
		"Fold":      true, // one XOR pass per child's partial sum, at every node of a tree
	},
	// The repair executor's multiply-accumulate loop: it runs once per
	// repaired block with caller-provided scratch, and a slice grown or
	// a closure captured per term would undo the point of fusing.
	"repro/internal/ec": {
		"foldTerms": true,
	},
	// The pooled read-into path under it: one pread of the chunks
	// covering the range into the caller's recycled buffer and a CRC
	// pass over them, then a view of it. The allocating fallbacks (no
	// buffer offered, zero padding past a tight buffer) are suppressed
	// where they stand.
	"repro/internal/extent": {
		"ReadRangeInto": true,
		"verify":        true,
	},
	"repro/internal/hdfs": {
		"readRangeInto": true,
	},
	// Every RPC sends two frames through these: the header encoder
	// appends onto a pooled buffer that keeps its capacity (the two raw
	// appends, put and appendString, are suppressed where they stand) and
	// writeFrame hands that buffer and the payload to the socket as they
	// are. A make, a closure or a stray append here is garbage per
	// message — what small reads are made of.
	"repro/internal/serve": {
		"writeFrame":        true,
		"appendHeader":      true, // request and response
		"appendTo":          true, // the dn.partial tree
		"appendVarintField": true,
		"appendBoolField":   true,
		"appendStringField": true,
		"appendString":      true,
		"appendInts":        true,
		"beginNested":       true,
		"endNested":         true,
		"put":               true,
	},
}

func (a noAlloc) Check(pkg *Package) []Diagnostic {
	scope, ok := noAllocScopes[pkg.ImportPath]
	if !ok {
		return nil
	}
	var diags []Diagnostic
	for _, f := range pkg.Files {
		if f.IsTest {
			continue
		}
		for _, decl := range f.AST.Decls {
			fd, isFunc := decl.(*ast.FuncDecl)
			if !isFunc || fd.Body == nil {
				continue
			}
			if scope != nil && !scope[fd.Name.Name] {
				continue
			}
			diags = append(diags, a.checkFunc(pkg, fd)...)
		}
	}
	return diags
}

func (a noAlloc) checkFunc(pkg *Package, fd *ast.FuncDecl) []Diagnostic {
	var diags []Diagnostic
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok {
				switch id.Name {
				case "append", "make", "new":
					diags = append(diags, diag(pkg, a.Name(), x.Pos(),
						"%s in alloc-free hot path %s: kernels and fold loops must not allocate per call", id.Name, fd.Name.Name))
				}
			}
		case *ast.FuncLit:
			diags = append(diags, diag(pkg, a.Name(), x.Pos(),
				"closure in alloc-free hot path %s: a captured-variable closure allocates per call", fd.Name.Name))
			return true
		case *ast.CompositeLit:
			if _, isMap := x.Type.(*ast.MapType); isMap {
				diags = append(diags, diag(pkg, a.Name(), x.Pos(),
					"map literal in alloc-free hot path %s", fd.Name.Name))
			}
		}
		return true
	})
	return diags
}
