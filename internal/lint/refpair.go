package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/cfg"
)

// RefPairAnalyzer checks Retain/Release pairing on *rtmp.SharedPayload
// references created in a function via rtmp.SharePayload.
//
// The analysis is flow-sensitive over the function's CFG and tracks a
// per-path reference balance: SharePayload opens one reference,
// Retain adds one, Release drops one. A path that reaches a return with
// a positive balance leaks a pooled buffer; a Release with no reference
// held on some path is a double release (it would panic the pool at
// runtime, or worse, recycle a buffer another consumer still reads).
//
// Ownership handoffs are recognized structurally: as soon as the
// reference escapes the function's hands — passed to a call, stored in
// a composite literal or another variable, sent on a channel, returned,
// or captured by a closure — the receiving queue is assumed to own it
// (the hub/feed convention) and the path is no longer tracked. The
// idiomatic hot path therefore stays quiet: Retain before each handoff,
// one final Release of the creating reference.
//
// It still earns its place with one production SharePayload site
// (service.hub's publish, behind fanout's exactly-once Send-or-Discard
// hooks): a seeded early return between SharePayload and fan.Publish
// trips it. It does not see past the handoff: once sp has gone to
// fan.Publish the path is untracked, so a dropped final sp.Release() or
// a second one after Publish passes it silently.
var RefPairAnalyzer = &analysis.Analyzer{
	Name:     "refpair",
	Doc:      "check SharePayload/Retain/Release pairing on every exit path of a function",
	Requires: []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer},
	Run:      runRefPair,
}

// refpair abstract states, per tracked variable along one path.
const (
	balMax = 3 // clamp: balances above this are treated as "many"
)

type refState struct {
	bal          int8 // held references on this path
	deferRelease bool // a defer sp.Release() is pending on this path
}

func runRefPair(pass *analysis.Pass) (any, error) {
	sup := newSuppressor(pass)
	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)

	insp.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
		var body *ast.BlockStmt
		var g *cfg.CFG
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body = fn.Body
			if body != nil {
				g = cfgs.FuncDecl(fn)
			}
		case *ast.FuncLit:
			body = fn.Body
			g = cfgs.FuncLit(fn)
		}
		if body == nil || g == nil {
			return
		}
		for _, tv := range refPairTargets(pass, body) {
			refPairCheck(pass, sup, g, tv)
		}
	})
	return nil, nil
}

// tracked is one local variable holding a SharePayload-created reference.
type tracked struct {
	obj     *types.Var
	created *ast.CallExpr // the SharePayload call
	assign  *ast.AssignStmt
}

// refPairTargets finds `sp := rtmp.SharePayload(...)` in this exact
// function body (not nested literals) where sp is assigned exactly once.
func refPairTargets(pass *analysis.Pass, body *ast.BlockStmt) []tracked {
	var out []tracked
	assignCount := map[*types.Var]int{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			if v, ok := pass.TypesInfo.ObjectOf(id).(*types.Var); ok {
				assignCount[v]++
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // nested functions have their own CFG and pass
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !isSharePayloadCall(pass, call) {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.ObjectOf(id).(*types.Var)
		if !ok || assignCount[v] != 1 {
			return true // reassigned references are beyond this analysis
		}
		out = append(out, tracked{obj: v, created: call, assign: as})
		return true
	})
	return out
}

// isSharePayloadCall reports whether call invokes rtmp.SharePayload.
func isSharePayloadCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	var id *ast.Ident
	switch f := call.Fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return false
	}
	fn, ok := pass.TypesInfo.ObjectOf(id).(*types.Func)
	return ok && fn.Name() == "SharePayload" && fn.Pkg() != nil && pkgBase(fn.Pkg().Path()) == "rtmp"
}

// isSharedPayloadMethod reports whether call is sp.<name>() on the
// tracked variable, for name in Retain/Release/Bytes.
func refPairMethod(pass *analysis.Pass, tv tracked, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || pass.TypesInfo.ObjectOf(id) != tv.obj {
		return "", false
	}
	switch sel.Sel.Name {
	case "Retain", "Release", "Bytes":
		return sel.Sel.Name, true
	}
	return "", false
}

// refPairCheck runs the balance interpretation for one tracked variable.
func refPairCheck(pass *analysis.Pass, sup *suppressor, g *cfg.CFG, tv tracked) {
	// Locate the creating assignment's block and node index.
	startBlock, startNode := -1, -1
	for bi, b := range g.Blocks {
		for ni, n := range b.Nodes {
			if n == ast.Node(tv.assign) {
				startBlock, startNode = bi, ni
			}
		}
	}
	if startBlock < 0 {
		return // unreachable code or a CFG shape we do not model
	}

	type work struct {
		block int
		node  int // first node index to interpret
		st    refState
	}
	seen := map[work]bool{}
	// doubleReported/leakReported dedupe diagnostics per position.
	reported := map[token.Pos]bool{}

	var queue []work
	push := func(w work) {
		if !seen[w] {
			seen[w] = true
			queue = append(queue, w)
		}
	}
	push(work{startBlock, startNode, refState{}})

	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		b := g.Blocks[w.block]
		st := w.st
		transferred := false
		for ni := w.node; ni < len(b.Nodes); ni++ {
			n := b.Nodes[ni]
			if n == ast.Node(tv.assign) {
				st.bal = 1
				continue
			}
			use, kind := refPairUse(pass, tv, n)
			if !use {
				continue
			}
			switch kind {
			case "Retain":
				if st.bal < balMax {
					st.bal++
				}
			case "Release":
				if st.bal <= 0 {
					pos := n.Pos()
					if !reported[pos] {
						reported[pos] = true
						sup.report(pass, pos, "%s.Release with no reference held on this path (SharePayload at %s): double release recycles a buffer another consumer may still read",
							tv.obj.Name(), pass.Fset.Position(tv.created.Pos()))
					}
					transferred = true // stop: avoid cascading reports
				} else {
					st.bal--
				}
			case "Bytes":
				// reading the payload does not move the reference
			case "defer-release":
				st.deferRelease = true
			case "handoff":
				// Ownership may have moved to a queue/callee; the
				// convention says the receiver releases it. Stop tracking
				// this path.
				transferred = true
			}
			if transferred {
				break
			}
		}
		if transferred {
			continue
		}
		if len(b.Succs) == 0 {
			if !b.Live {
				continue
			}
			eff := int(st.bal)
			if st.deferRelease {
				eff--
			}
			if eff > 0 && st.bal > 0 {
				pos := tv.created.Pos()
				// Prefer the return statement position if present.
				for _, n := range b.Nodes {
					if r, ok := n.(*ast.ReturnStmt); ok {
						pos = r.Pos()
					}
				}
				if !reported[pos] {
					reported[pos] = true
					sup.report(pass, pos, "this path leaks a rtmp.SharedPayload reference to %s (SharePayload at %s): Release it or hand it off before returning",
						tv.obj.Name(), pass.Fset.Position(tv.created.Pos()))
				}
			}
			continue
		}
		for _, s := range b.Succs {
			push(work{int(s.Index), 0, st})
		}
	}
}

// refPairUse classifies one CFG node's use of the tracked variable:
// Retain/Release/Bytes method calls, a deferred Release, or any other
// appearance (a handoff). Nodes not mentioning the variable return false.
func refPairUse(pass *analysis.Pass, tv tracked, n ast.Node) (bool, string) {
	// A defer sp.Release() keeps the balance until function exit.
	if d, ok := n.(*ast.DeferStmt); ok {
		if name, ok := refPairMethod(pass, tv, d.Call); ok && name == "Release" {
			return true, "defer-release"
		}
	}
	mentions := false
	kind := ""
	ast.Inspect(n, func(x ast.Node) bool {
		if kind == "handoff" {
			return false
		}
		if _, ok := x.(*ast.FuncLit); ok {
			// Capture by a closure is a handoff: the closure may run later.
			if refPairMentions(pass, tv, x) {
				mentions, kind = true, "handoff"
			}
			return false
		}
		if call, ok := x.(*ast.CallExpr); ok {
			if name, ok := refPairMethod(pass, tv, call); ok {
				mentions = true
				if kind == "" {
					kind = name
				}
				// Do not descend: sp in sp.Release() is not a handoff.
				return false
			}
		}
		if id, ok := x.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == tv.obj {
			mentions, kind = true, "handoff"
		}
		return true
	})
	return mentions, kind
}

// refPairMentions reports whether the subtree references the variable.
func refPairMentions(pass *analysis.Pass, tv tracked, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == tv.obj {
			found = true
		}
		return !found
	})
	return found
}
