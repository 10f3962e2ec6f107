package lint

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// CtxDetachAnalyzer reports coalesced-fill goroutines that capture the
// initiating request's context.
//
// The shape it looks for is the single-flight demand fill (hls.Replica
// segment/playlist fills, TieredSource probes): a function takes an
// inbound context.Context, spawns the fill in a goroutine, and joins it
// with
//
//	select {
//	case <-f.done:      // fill finished (f shared with the goroutine)
//	case <-ctx.Done():  // this caller gave up waiting
//	}
//
// The ctx.Done case means the caller can abandon the wait while other
// coalesced waiters still depend on the fill — so the fill itself must
// not run on that caller's context. A goroutine that is joined this way
// and also references the inbound ctx (or a context derived from it) is
// exactly the PR 4 initiator-disconnect bug: one viewer hanging up
// cancels the fetch for everybody. Detach with
// context.WithTimeout(context.Background(), ...) instead.
//
// Goroutines whose completion is not select-joined against ctx.Done
// (e.g. a player fetching its own segments and wg.Wait-ing) are the
// caller's own work, legitimately cancel with it, and are not flagged.
//
// It still earns its place in today's idiom, where one fill function
// (hls.Replica.fill) serves demand and prefetch and a hit is a lock-free
// window load: a seeded r.fill(ctx, seq, f) in Replica.Segment's fill
// goroutine trips it.
var CtxDetachAnalyzer = &analysis.Analyzer{
	Name:     "ctxdetach",
	Doc:      "report single-flight fill goroutines that capture a request-scoped context",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runCtxDetach,
}

func runCtxDetach(pass *analysis.Pass) (any, error) {
	sup := newSuppressor(pass)
	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	insp.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fn := n.(*ast.FuncDecl)
		if fn.Body == nil {
			return
		}
		ctxDetachCheck(pass, sup, fn.Type, fn.Body)
	})
	return nil, nil
}

func ctxDetachCheck(pass *analysis.Pass, sup *suppressor, ft *ast.FuncType, body *ast.BlockStmt) {
	tainted := taintedContexts(pass, ft, body)
	if len(tainted) == 0 {
		return
	}

	// Collect the function's selects that join on a tainted ctx.Done()
	// plus at least one other channel; remember the locals those other
	// channels hang off.
	type joinSelect struct {
		sel    *ast.SelectStmt
		ctxVar *types.Var
		locals map[*types.Var]bool // channel-bearing locals in other cases
	}
	var joins []joinSelect
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		j := joinSelect{sel: sel, locals: map[*types.Var]bool{}}
		for _, c := range sel.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			ch := commChannel(cc.Comm)
			if ch == nil {
				continue
			}
			if v := doneCallOn(pass, ch, tainted); v != nil {
				j.ctxVar = v
				continue
			}
			for _, lv := range channelLocals(pass, ch, body) {
				j.locals[lv] = true
			}
		}
		if j.ctxVar != nil && len(j.locals) > 0 {
			joins = append(joins, j)
		}
		return true
	})
	if len(joins) == 0 {
		return
	}

	// Any goroutine that references a tainted context AND shares a
	// channel-bearing local with such a join is a coalesced fill running
	// on a request context.
	ast.Inspect(body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		var taintedRef *types.Var
		locals := map[*types.Var]bool{}
		ast.Inspect(g.Call, func(x ast.Node) bool {
			id, ok := x.(*ast.Ident)
			if !ok {
				return true
			}
			v, ok := pass.TypesInfo.ObjectOf(id).(*types.Var)
			if !ok {
				return true
			}
			if tainted[v] {
				taintedRef = v
			}
			if isFuncLocal(v, body) && typeBearsChan(v.Type()) {
				locals[v] = true
			}
			return true
		})
		if taintedRef == nil {
			return true
		}
		for _, j := range joins {
			for lv := range j.locals {
				if locals[lv] {
					sup.report(pass, g.Pos(), "fill goroutine is awaited by coalesced waiters (select on <-%s.Done() at %s) but captures the request-scoped context %q; derive the upstream context from context.Background() so one disconnecting waiter cannot fail the fill for the rest",
						j.ctxVar.Name(), pass.Fset.Position(j.sel.Pos()), taintedRef.Name())
					return true
				}
			}
		}
		return true
	})
}

// taintedContexts returns the function's inbound context variables: ctx
// parameters plus locals derived from them via context.With* (and
// contexts obtained from an *http.Request parameter's Context method).
func taintedContexts(pass *analysis.Pass, ft *ast.FuncType, body *ast.BlockStmt) map[*types.Var]bool {
	tainted := map[*types.Var]bool{}
	if ft.Params != nil {
		for _, f := range ft.Params.List {
			for _, name := range f.Names {
				v, ok := pass.TypesInfo.ObjectOf(name).(*types.Var)
				if ok && isContextType(v.Type()) {
					tainted[v] = true
				}
			}
		}
	}
	reqParams := map[*types.Var]bool{}
	if ft.Params != nil {
		for _, f := range ft.Params.List {
			for _, name := range f.Names {
				if v, ok := pass.TypesInfo.ObjectOf(name).(*types.Var); ok {
					if ptr, ok := v.Type().(*types.Pointer); ok {
						if named, ok := ptr.Elem().(*types.Named); ok &&
							named.Obj().Name() == "Request" && named.Obj().Pkg() != nil &&
							named.Obj().Pkg().Path() == "net/http" {
							reqParams[v] = true
						}
					}
				}
			}
		}
	}
	// Propagate through derivations to a fixpoint.
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, rhs := range as.Rhs {
				if i >= len(as.Lhs) && len(as.Rhs) != 1 {
					break
				}
				if !derivesFromTainted(pass, rhs, tainted, reqParams) {
					continue
				}
				for _, lhs := range as.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					v, ok := pass.TypesInfo.ObjectOf(id).(*types.Var)
					if ok && isContextType(v.Type()) && !tainted[v] {
						tainted[v] = true
						changed = true
					}
				}
			}
			return true
		})
	}
	return tainted
}

// derivesFromTainted reports whether expr produces a context derived
// from a tainted one: the tainted ident itself, context.With*(tainted,
// ...), or req.Context().
func derivesFromTainted(pass *analysis.Pass, expr ast.Expr, tainted, reqParams map[*types.Var]bool) bool {
	found := false
	ast.Inspect(expr, func(x ast.Node) bool {
		switch y := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			if v, ok := pass.TypesInfo.ObjectOf(y).(*types.Var); ok && tainted[v] {
				found = true
			}
		case *ast.CallExpr:
			if sel, ok := y.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Context" {
				if id, ok := sel.X.(*ast.Ident); ok {
					if v, ok := pass.TypesInfo.ObjectOf(id).(*types.Var); ok && reqParams[v] {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}

// commChannel extracts the channel expression of a select comm clause.
func commChannel(comm ast.Stmt) ast.Expr {
	switch s := comm.(type) {
	case *ast.ExprStmt:
		if un, ok := s.X.(*ast.UnaryExpr); ok {
			return un.X
		}
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			if un, ok := s.Rhs[0].(*ast.UnaryExpr); ok {
				return un.X
			}
		}
	case *ast.SendStmt:
		return s.Chan
	}
	return nil
}

// doneCallOn matches ch == v.Done() for a tainted v.
func doneCallOn(pass *analysis.Pass, ch ast.Expr, tainted map[*types.Var]bool) *types.Var {
	call, ok := ch.(*ast.CallExpr)
	if !ok {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	if v, ok := pass.TypesInfo.ObjectOf(id).(*types.Var); ok && tainted[v] {
		return v
	}
	return nil
}

// channelLocals returns the channel-bearing function-local variables a
// select case's channel expression hangs off (f in <-f.done).
func channelLocals(pass *analysis.Pass, ch ast.Expr, body *ast.BlockStmt) []*types.Var {
	var out []*types.Var
	ast.Inspect(ch, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.ObjectOf(id).(*types.Var)
		if !ok {
			return true
		}
		if isFuncLocal(v, body) && typeBearsChan(v.Type()) {
			out = append(out, v)
		}
		return true
	})
	return out
}

// isFuncLocal reports whether v is declared inside the function body
// (parameters and receivers are not: they are visible everywhere in the
// function and would make the join linkage meaningless).
func isFuncLocal(v *types.Var, body *ast.BlockStmt) bool {
	return v.Pos() >= body.Pos() && v.Pos() <= body.End()
}

// typeBearsChan reports whether t is, points to, or contains (one
// struct level deep) a channel — the done-channel carriers that link a
// spawned fill to its join select.
func typeBearsChan(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Chan:
		return true
	case *types.Pointer:
		return typeBearsChan(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if _, ok := u.Field(i).Type().Underlying().(*types.Chan); ok {
				return true
			}
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
