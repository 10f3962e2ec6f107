package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// SnapMonoAnalyzer enforces the "counters never dip" invariant from
// PRs 4–7: a counter field that is read into a snapshot must only ever
// accumulate. The counters live in blocks owned by the longest-lived
// object that reports them (a POP's hls.FillCounters, the service's
// delivery counters, a chat server's room counters) and short-lived
// children count into them, so churn cannot make Service.Snapshot go
// backwards — but one stray `c.fills = 0` or Store(0) on such a shared
// block silently un-counts history and every monotonicity test
// downstream starts flaking.
//
// A field is classified as a monotonic counter when all three hold:
//
//   - it accumulates: `f += x`, `f++`, atomic.AddT(&f, x) or
//     f.Add(x) on a sync/atomic wrapper;
//   - it folds into a snapshot: its value is read while building or
//     updating a struct whose type name contains "Stats" or "Snapshot",
//     or it is itself a field of such a struct;
//   - the defining package never decrements it (fields with negative
//     adds are gauges — member counts, queue depths — and exempt).
//
// Violations are plain reassignment to a constant (`f = 0`), decrements
// (`f--`, `f -= x`, negative adds), and atomic Store/Swap. Counter
// classification is exported as an object fact on the field, so a
// package folding another package's Stats cannot zero or subtract from
// those fields either. It still earns its place in today's idiom, where
// every counter is a typed sync/atomic wrapper: a seeded
// `c.Fills.Store(0)` on an hls.FillCounters block trips it.
var SnapMonoAnalyzer = &analysis.Analyzer{
	Name:      "snapmono",
	Doc:       "forbid resets and decrements of counter fields that fold into Snapshot/Stats aggregates",
	Requires:  []*analysis.Analyzer{inspect.Analyzer},
	FactTypes: []analysis.Fact{(*counterFact)(nil)},
	Run:       runSnapMono,
}

// counterFact marks a struct field as a monotonic snapshot counter.
type counterFact struct{}

func (*counterFact) AFact() {}

func (*counterFact) String() string { return "monotonic-counter" }

// fieldUse is one write-ish operation on a field, recorded during the
// package scan and judged after classification.
type fieldUse struct {
	pos  token.Pos
	what string // diagnostic verb: "zeroed", "decremented", ...
}

func runSnapMono(pass *analysis.Pass) (any, error) {
	sup := newSuppressor(pass)
	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	incremented := map[*types.Var]bool{}
	decremented := map[*types.Var]bool{}
	folded := map[*types.Var]bool{}
	resets := map[*types.Var][]fieldUse{}

	addReset := func(v *types.Var, pos token.Pos, what string) {
		resets[v] = append(resets[v], fieldUse{pos: pos, what: what})
	}

	// fieldOf resolves an expression to a struct-field var.
	fieldOf := func(e ast.Expr) *types.Var {
		e = ast.Unparen(e)
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
			e = ast.Unparen(u.X)
		}
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		v, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Var)
		if !ok || !v.IsField() {
			return nil
		}
		return v
	}

	// markReads records every field read inside e as snapshot-folded.
	markReads := func(e ast.Expr) {
		ast.Inspect(e, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if v, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Var); ok && v.IsField() {
					folded[v] = true
				}
			}
			return true
		})
	}

	constSign := func(e ast.Expr) (isConst bool, negative bool) {
		tv, ok := pass.TypesInfo.Types[e]
		if !ok || tv.Value == nil {
			return false, false
		}
		if tv.Value.Kind() != constant.Int && tv.Value.Kind() != constant.Float {
			return true, false
		}
		return true, constant.Sign(tv.Value) < 0
	}

	insp.Preorder([]ast.Node{(*ast.AssignStmt)(nil), (*ast.IncDecStmt)(nil), (*ast.CallExpr)(nil), (*ast.CompositeLit)(nil)}, func(n ast.Node) {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				v := fieldOf(lhs)
				if v == nil {
					continue
				}
				var rhs ast.Expr
				if i < len(x.Rhs) {
					rhs = x.Rhs[i]
				} else if len(x.Rhs) == 1 {
					rhs = x.Rhs[0]
				}
				switch x.Tok {
				case token.ADD_ASSIGN:
					incremented[v] = true
					if isSnapshotOwner(pass, lhs) && rhs != nil {
						markReads(rhs)
					}
				case token.SUB_ASSIGN:
					decremented[v] = true
					addReset(v, x.Pos(), "decremented")
				case token.ASSIGN:
					if rhs == nil {
						continue
					}
					if isConst, _ := constSign(rhs); isConst {
						addReset(v, x.Pos(), "reassigned to a constant")
					}
					if isSnapshotOwner(pass, lhs) {
						markReads(rhs)
					}
				}
			}
		case *ast.IncDecStmt:
			v := fieldOf(x.X)
			if v == nil {
				return
			}
			if x.Tok == token.INC {
				incremented[v] = true
			} else {
				decremented[v] = true
				addReset(v, x.Pos(), "decremented")
			}
		case *ast.CompositeLit:
			if t := pass.TypesInfo.TypeOf(x); t != nil && isSnapshotName(typeName(t)) {
				for _, el := range x.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						markReads(kv.Value)
					} else {
						markReads(el)
					}
				}
			}
		case *ast.CallExpr:
			snapMonoCall(pass, x, fieldOf, constSign, incremented, decremented, addReset)
		}
	})

	// Classify this package's counters and export facts. A field of a
	// Stats/Snapshot struct is the aggregate itself: decrementing it IS
	// the dip bug, so decrements cannot reclassify it as a gauge. A
	// working field outside a snapshot struct that the package
	// decrements is a gauge (member count, queue depth) and exempt.
	isCounter := func(v *types.Var) bool {
		if v.Pkg() != pass.Pkg {
			// Cross-package: the defining package's verdict arrives as a
			// fact.
			var fact counterFact
			return pass.ImportObjectFact(v, &fact)
		}
		if !incremented[v] {
			return false
		}
		if ownerIsSnapshot(v) {
			return true
		}
		return !decremented[v] && folded[v]
	}
	for v := range incremented {
		if v.Pkg() == pass.Pkg && isCounter(v) {
			pass.ExportObjectFact(v, &counterFact{})
		}
	}

	// Judge the recorded writes.
	for v, uses := range resets {
		if !isCounter(v) {
			continue
		}
		owner := ""
		if o := fieldOwnerName(v); o != "" {
			owner = o + "."
		}
		for _, u := range uses {
			sup.report(pass, u.pos, "monotonic counter %s%s (folded into a Snapshot/Stats aggregate) is %s; counters must only accumulate so snapshots never dip under churn — fold into an aggregate instead of resetting",
				owner, v.Name(), u.what)
		}
	}
	return nil, nil
}

// snapMonoCall handles the sync/atomic surface: package functions
// (atomic.AddInt64, atomic.StoreInt64) and wrapper methods
// (atomic.Int64.Add/Store/Swap).
func snapMonoCall(pass *analysis.Pass, call *ast.CallExpr,
	fieldOf func(ast.Expr) *types.Var,
	constSign func(ast.Expr) (bool, bool),
	incremented, decremented map[*types.Var]bool,
	addReset func(*types.Var, token.Pos, string)) {

	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		// Wrapper method: x.f.Add(n), x.f.Store(n), x.f.Swap(n).
		v := fieldOf(sel.X)
		if v == nil {
			return
		}
		switch fn.Name() {
		case "Add":
			if len(call.Args) == 1 {
				if isConst, neg := constSign(call.Args[0]); isConst && neg {
					decremented[v] = true
					addReset(v, call.Pos(), "decremented (negative atomic Add)")
					return
				}
			}
			incremented[v] = true
		case "Store":
			addReset(v, call.Pos(), "overwritten (atomic Store)")
		case "Swap":
			addReset(v, call.Pos(), "reset (atomic Swap)")
		}
		return
	}
	// Package function: atomic.AddT(&x.f, n), atomic.StoreT(&x.f, n).
	if len(call.Args) < 1 {
		return
	}
	v := fieldOf(call.Args[0])
	if v == nil {
		return
	}
	switch {
	case strings.HasPrefix(fn.Name(), "Add"):
		if len(call.Args) == 2 {
			if isConst, neg := constSign(call.Args[1]); isConst && neg {
				decremented[v] = true
				addReset(v, call.Pos(), "decremented (negative atomic Add)")
				return
			}
		}
		incremented[v] = true
	case strings.HasPrefix(fn.Name(), "Store"):
		addReset(v, call.Pos(), "overwritten (atomic Store)")
	case strings.HasPrefix(fn.Name(), "Swap"):
		addReset(v, call.Pos(), "reset (atomic Swap)")
	}
}

// isSnapshotOwner reports whether the assignment target hangs off a
// struct whose type name marks it as a snapshot aggregate.
func isSnapshotOwner(pass *analysis.Pass, lhs ast.Expr) bool {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok {
		return false
	}
	return isSnapshotName(typeName(s.Recv()))
}

// ownerIsSnapshot reports whether the field's declaring struct is
// itself a Stats/Snapshot type (its fields are the aggregate).
func ownerIsSnapshot(v *types.Var) bool {
	return isSnapshotName(fieldOwnerName(v))
}

// fieldOwnerName finds the named struct type declaring field v.
func fieldOwnerName(v *types.Var) string {
	if v.Pkg() == nil {
		return ""
	}
	scope := v.Pkg().Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == v {
				return tn.Name()
			}
		}
	}
	return ""
}

func typeName(t types.Type) string {
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

func isSnapshotName(name string) bool {
	return strings.Contains(name, "Stats") || strings.Contains(name, "Snapshot")
}
