package analysis

import (
	"go/ast"
	"go/token"
)

// frameCheck hardens the serve wire path:
//
//  1. Every framed-RPC read/write/codec result must be checked. A
//     discarded error from ReadFull/Read/Write/Marshal/Unmarshal/
//     Encode/Decode/Flush (expression statement, blank assignment, or
//     go/defer) silently turns a truncated or severed frame into
//     corrupt state instead of a connection error.
//  2. Every []byte allocation whose size is not a compile-time
//     constant must be dominated by a bounds check: make([]byte, n)
//     with n decoded from a frame header is an attacker-sized
//     allocation unless a comparison on n appears first. The analyzer
//     accepts any earlier comparison in the enclosing function that
//     mentions the same expression (or its root identifier); sizes
//     derived from len/cap of existing data are exempt.
//  3. The same holds for a slice of any element type when its size is
//     a count a header decoder just yielded (Uvarint/Varint/UintNN and
//     the serve decoder's uvarint/varint): a block table's declared
//     length is as attacker-chosen as a payload's. A helper that makes
//     the comparison itself and returns the checked count (the serve
//     decoder's count) is the blessed way to size such a slice.
type frameCheck struct{}

// FrameCheck returns the framecheck analyzer.
func FrameCheck() Analyzer { return frameCheck{} }

func (frameCheck) Name() string { return "framecheck" }

func (frameCheck) Doc() string {
	return "serve wire path: every frame read/write error checked, every decoded length bounds-checked before allocation"
}

// frameTargetPaths are the packages the rule applies to: the serve
// wire path, the telemetry plane it carries (trace headers ride the
// same frames; the debug HTTP handlers marshal registry state), the
// extent store (segment headers are length-prefixed disk frames —
// a decoded length allocates the read buffer, so the same
// bounds-before-allocation discipline applies), and the block cache
// (it sits directly on the read path and sizes copies from lengths
// that originated as wire payloads).
var frameTargetPaths = map[string]bool{
	"repro/internal/serve":     true,
	"repro/internal/telemetry": true,
	"repro/internal/extent":    true,
	"repro/internal/cache":     true,
}

// wireCallErrLast are wire-path calls returning (n, err).
var wireCallErrLast = map[string]bool{
	"ReadFull": true,
	"Read":     true,
	"Write":    true,
	"WriteTo":  true,
	"Marshal":  true,
}

// wireCallErrOnly are wire-path calls returning just an error.
var wireCallErrOnly = map[string]bool{
	"Unmarshal": true,
	"Encode":    true,
	"Decode":    true,
	"Flush":     true,
	// The binary frame header's decoder (serve/codec.go).
	"decodeHeader": true,
}

// decodedCountCalls yield an integer read straight out of wire bytes:
// whatever one is assigned to is attacker-chosen until compared.
var decodedCountCalls = map[string]bool{
	"Uvarint": true, "Varint": true,
	"uvarint": true, "varint": true,
	"Uint16": true, "Uint32": true, "Uint64": true,
}

func (a frameCheck) Check(pkg *Package) []Diagnostic {
	if !frameTargetPaths[pkg.ImportPath] {
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
			diags = append(diags, a.checkErrors(pkg, fd)...)
			diags = append(diags, a.checkMakes(pkg, fd)...)
		}
	}
	return diags
}

// wireCall classifies a call: 0 not wire-path, 1 err-only, 2 err-last.
func wireCall(call *ast.CallExpr) int {
	// Only method-style calls: a lone identifier is a local helper
	// whose error handling is checked at its own call sites.
	if _, ok := call.Fun.(*ast.SelectorExpr); !ok {
		return 0
	}
	name := calleeName(call)
	switch {
	case wireCallErrOnly[name]:
		return 1
	case wireCallErrLast[name]:
		return 2
	}
	return 0
}

// checkErrors flags discarded wire-call errors.
func (a frameCheck) checkErrors(pkg *Package, fd *ast.FuncDecl) []Diagnostic {
	var diags []Diagnostic
	report := func(call *ast.CallExpr, how string) {
		diags = append(diags, diag(pkg, a.Name(), call.Pos(),
			"%s result of %s on the wire path: a truncated or severed frame must surface as an error", how, calleeName(call)))
	}
	ast.Inspect(fd, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ExprStmt:
			if call, ok := x.X.(*ast.CallExpr); ok && wireCall(call) != 0 {
				report(call, "discarded")
			}
		case *ast.GoStmt:
			if wireCall(x.Call) != 0 {
				report(x.Call, "discarded (go)")
			}
		case *ast.DeferStmt:
			if wireCall(x.Call) != 0 {
				report(x.Call, "discarded (defer)")
			}
		case *ast.AssignStmt:
			diags = append(diags, a.checkAssign(pkg, x)...)
		}
		return true
	})
	return diags
}

// checkAssign flags wire calls whose error result lands in the blank
// identifier.
func (a frameCheck) checkAssign(pkg *Package, as *ast.AssignStmt) []Diagnostic {
	var diags []Diagnostic
	blank := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "_"
	}
	if len(as.Rhs) == 1 {
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return nil
		}
		kind := wireCall(call)
		errBlank := (kind == 2 && len(as.Lhs) == 2 && blank(as.Lhs[1])) ||
			(kind == 1 && len(as.Lhs) == 1 && blank(as.Lhs[0]))
		if errBlank {
			diags = append(diags, diag(pkg, a.Name(), call.Pos(),
				"error of %s assigned to _ on the wire path: a truncated or severed frame must surface as an error", calleeName(call)))
		}
		return diags
	}
	// Tuple form: a, b := f(), g() — single-result calls align 1:1.
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || i >= len(as.Lhs) {
			continue
		}
		if wireCall(call) == 1 && blank(as.Lhs[i]) {
			diags = append(diags, diag(pkg, a.Name(), call.Pos(),
				"error of %s assigned to _ on the wire path: a truncated or severed frame must surface as an error", calleeName(call)))
		}
	}
	return diags
}

// checkMakes flags unguarded variable-size []byte allocations.
func (a frameCheck) checkMakes(pkg *Package, fd *ast.FuncDecl) []Diagnostic {
	// Gather every comparison operand's text first; a make is guarded
	// when some comparison mentioning its size expression appears
	// earlier in the function.
	type guard struct {
		pos  token.Pos
		text string
	}
	var guards []guard
	ast.Inspect(fd, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
			guards = append(guards, guard{be.Pos(), exprKey(be.X)}, guard{be.Pos(), exprKey(be.Y)})
		}
		return true
	})
	guarded := func(pos token.Pos, key string) bool {
		if key == "" {
			return false
		}
		for _, g := range guards {
			if g.pos < pos && g.text == key {
				return true
			}
		}
		return false
	}

	// Whatever a decoder call was assigned to is a decoded count (the
	// first left-hand side: binary.Uvarint also returns a width).
	decoded := map[string]bool{}
	ast.Inspect(fd, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if ok && len(as.Rhs) == 1 && isDecodedCount(as.Rhs[0]) {
			decoded[exprKey(as.Lhs[0])] = true
		}
		return true
	})

	var diags []Diagnostic
	ast.Inspect(fd, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, isIdent := call.Fun.(*ast.Ident); !isIdent || id.Name != "make" || len(call.Args) < 2 {
			return true
		}
		at, ok := call.Args[0].(*ast.ArrayType)
		if !ok || at.Len != nil {
			return true
		}
		elt, _ := at.Elt.(*ast.Ident)
		bytes := elt != nil && elt.Name == "byte"
		for _, sz := range call.Args[1:] {
			if constLikeSize(sz) {
				continue
			}
			key := exprKey(sz)
			if guarded(call.Pos(), key) {
				continue
			}
			switch {
			case bytes:
				diags = append(diags, diag(pkg, a.Name(), call.Pos(),
					"make([]byte, %s) without a preceding bounds check: a decoded frame length must be validated before it sizes an allocation", key))
			case isDecodedCount(sz) || decoded[key]:
				diags = append(diags, diag(pkg, a.Name(), call.Pos(),
					"make sized by a decoded count without a preceding bounds check: hold it to the bytes that remain before it sizes an allocation"))
			}
		}
		return true
	})
	return diags
}

// isDecodedCount reports whether e is a decoder call (decodedCountCalls),
// bare or inside integer conversions.
func isDecodedCount(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
			continue
		case *ast.CallExpr:
			if decodedCountCalls[calleeName(x)] {
				return true
			}
			if _, conv := x.Fun.(*ast.Ident); conv && len(x.Args) == 1 {
				e = x.Args[0]
				continue
			}
		}
		return false
	}
}

// exprKey normalises a size expression to its comparison key: the
// selector path or identifier, unwrapping parens and single-argument
// conversions like int(x) or int64(x).
func exprKey(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
			continue
		case *ast.CallExpr:
			// A conversion: lone-identifier callee with one argument.
			if id, ok := x.Fun.(*ast.Ident); ok && len(x.Args) == 1 {
				switch id.Name {
				case "int", "int8", "int16", "int32", "int64",
					"uint", "uint8", "uint16", "uint32", "uint64", "uintptr":
					e = x.Args[0]
					continue
				}
			}
			return ""
		}
		break
	}
	return selectorPath(e)
}

// constLikeSize reports sizes that need no guard: literals, constant
// arithmetic over literals, and len/cap of existing data.
func constLikeSize(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.BasicLit:
		return true
	case *ast.ParenExpr:
		return constLikeSize(x.X)
	case *ast.BinaryExpr:
		return constLikeSize(x.X) && constLikeSize(x.Y)
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap" || id.Name == "min" || id.Name == "max") {
			return true
		}
	case *ast.Ident:
		// A lone lowercase-or-uppercase identifier could be a local
		// constant; only package-level ALL_CAPS-style consts are
		// common here. Be conservative: treat known size consts as
		// constant by naming convention (max*/Max* prefixes).
		return len(x.Name) >= 3 && (x.Name[:3] == "max" || x.Name[:3] == "Max")
	}
	return false
}
