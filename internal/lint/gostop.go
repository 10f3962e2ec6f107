package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// GoStopAnalyzer checks that every long-lived goroutine launched from a
// constructor path (New*/Open*/Start*/Dial* and everything those reach
// inside the package) is provably stoppable. A background loop with no
// stop path outlives its owner: the replica watches, churn loops and
// heart/presence tickers this testbed runs by the thousand must all die
// with their subsystem, or a test fleet (and eventually a production
// fleet) leaks goroutines on every construct/teardown cycle.
//
// A goroutine counts as long-lived when its body (or a same-package
// function it calls) loops without a bound: `for {}`, `for` over a
// channel. It counts as stoppable when any of these hold:
//
//   - it selects on or receives from a channel that some function in
//     the defining package closes (quit/stop/done channels);
//   - it watches a context.Context (ctx.Done()/ctx.Err()), or the
//     launch site passes a context in;
//   - it is joined via sync.WaitGroup (defer wg.Done());
//   - its loop performs a blocking Accept/Read/Recv and exits on error:
//     the goroutine's lifetime is its connection's, and closing the conn
//     is the stop path (the runtime half of that contract is
//     internal/leakcheck's to enforce).
//
// Cross-package launches (`go pkgtype.Run()`) resolve through an
// exported fact: the defining package classifies the method, the
// launching package reads the verdict. It still earns its place in
// today's idiom: a seeded `go func() { for { time.Sleep(d);
// r.flushHearts() } }()` in chat.newRoom, a heart ticker with no stop
// path, trips it.
var GoStopAnalyzer = &analysis.Analyzer{
	Name:      "gostop",
	Doc:       "check that long-lived goroutines launched from constructor/Start paths have a stop path",
	Requires:  []*analysis.Analyzer{inspect.Analyzer},
	FactTypes: []analysis.Fact{(*goStopFact)(nil)},
	Run:       runGoStop,
}

// goStopFact is exported on every long-lived function so launch sites
// in other packages can check stoppability.
type goStopFact struct {
	Stoppable bool
	Why       string
}

func (*goStopFact) AFact() {}

func (f *goStopFact) String() string {
	if f.Stoppable {
		return "long-lived(stoppable: " + f.Why + ")"
	}
	return "long-lived(no stop path)"
}

// verdict is one function's lifecycle classification.
type verdict struct {
	longLived bool
	stoppable bool
	why       string
}

func runGoStop(pass *analysis.Pass) (any, error) {
	sup := newSuppressor(pass)
	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	// Package-wide context: which channel objects does anything close,
	// and which functions exist.
	closed := map[*types.Var]bool{}
	decls := map[*types.Func]*ast.FuncDecl{}
	insp.Preorder([]ast.Node{(*ast.CallExpr)(nil), (*ast.FuncDecl)(nil)}, func(n ast.Node) {
		switch x := n.(type) {
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "close" && len(x.Args) == 1 {
				if _, isBuiltin := pass.TypesInfo.ObjectOf(id).(*types.Builtin); isBuiltin {
					if v := chanVar(pass, x.Args[0]); v != nil {
						closed[v] = true
					}
				}
			}
		case *ast.FuncDecl:
			if fn, ok := pass.TypesInfo.ObjectOf(x.Name).(*types.Func); ok {
				decls[fn] = x
			}
		}
	})

	gs := &goStop{pass: pass, closed: closed, decls: decls, verdicts: map[*types.Func]*verdict{}}

	// Classify and export a fact for every long-lived function, whether
	// or not this package launches it: a dependent package might.
	for fn := range decls {
		if v := gs.classifyFunc(fn); v.longLived {
			pass.ExportObjectFact(fn, &goStopFact{Stoppable: v.stoppable, Why: v.why})
		}
	}

	// Constructor paths: New*/Open*/Start*/Dial* roots and every
	// same-package function they reach.
	onPath := map[*types.Func]bool{}
	var reach func(fn *types.Func)
	reach = func(fn *types.Func) {
		if fn == nil || onPath[fn] || fn.Pkg() != pass.Pkg {
			return
		}
		onPath[fn] = true
		decl := decls[fn]
		if decl == nil || decl.Body == nil {
			return
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				reach(staticCallee(pass, call))
			}
			return true
		})
	}
	for fn, decl := range decls {
		if decl.Body != nil && isConstructorName(fn.Name()) {
			reach(fn)
		}
	}

	// Check every go statement lexically inside a constructor-path body.
	for fn, decl := range decls {
		if !onPath[fn] || decl.Body == nil {
			continue
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			v := gs.classifyLaunch(g.Call)
			if v.longLived && !v.stoppable {
				sup.report(pass, g.Pos(), "long-lived goroutine launched from constructor path %s has no stop path: %s; give it a context, a quit channel closed on teardown, or a WaitGroup join",
					fn.Name(), launchDesc(pass, g.Call))
			}
			return true
		})
	}
	return nil, nil
}

type goStop struct {
	pass     *analysis.Pass
	closed   map[*types.Var]bool
	decls    map[*types.Func]*ast.FuncDecl
	verdicts map[*types.Func]*verdict
}

// classifyLaunch classifies the function a go statement launches.
func (gs *goStop) classifyLaunch(call *ast.CallExpr) verdict {
	// A context handed to the goroutine is a stop path regardless of
	// what the callee does with it (the callee side is checked in its
	// own package).
	for _, arg := range call.Args {
		if isContextType(gs.pass.TypesInfo.TypeOf(arg)) {
			return verdict{longLived: true, stoppable: true, why: "context passed at launch"}
		}
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return gs.classifyBody(lit.Body, nil)
	}
	callee := staticCallee(gs.pass, call)
	if callee == nil {
		return verdict{} // dynamic launch: unknown, stay quiet
	}
	return gs.classifyFunc(callee)
}

// classifyFunc classifies a function by object: same-package functions
// by body, cross-package ones by imported fact (no fact = not known to
// be long-lived = quiet).
func (gs *goStop) classifyFunc(fn *types.Func) verdict {
	if fn.Pkg() != gs.pass.Pkg {
		var fact goStopFact
		if gs.pass.ImportObjectFact(fn, &fact) {
			return verdict{longLived: true, stoppable: fact.Stoppable, why: fact.Why}
		}
		return verdict{}
	}
	if v, ok := gs.verdicts[fn]; ok {
		if v == nil {
			return verdict{} // recursion: break the cycle conservatively
		}
		return *v
	}
	gs.verdicts[fn] = nil
	decl := gs.decls[fn]
	v := verdict{}
	if decl != nil && decl.Body != nil {
		v = gs.classifyBody(decl.Body, decl.Type)
	}
	gs.verdicts[fn] = &v
	return v
}

// classifyBody inspects one function body. ftype carries the declared
// parameters (nil for literals): receiving from a parameter channel is
// stoppable — the launcher owns it.
func (gs *goStop) classifyBody(body *ast.BlockStmt, ftype *ast.FuncType) verdict {
	params := map[*types.Var]bool{}
	if ftype != nil && ftype.Params != nil {
		for _, f := range ftype.Params.List {
			for _, name := range f.Names {
				if v, ok := gs.pass.TypesInfo.ObjectOf(name).(*types.Var); ok {
					params[v] = true
				}
			}
		}
	}
	v := verdict{}
	evid := func(ok bool, why string) {
		if ok && !v.stoppable {
			v.stoppable = true
			v.why = why
		}
	}
	// Direct classification of this body. Nested function literals are
	// skipped: a loop inside a closure this body launches or stores is
	// not this body's loop (launched literals are classified directly at
	// their go statement).
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			if x.Cond == nil {
				v.longLived = true
			}
		case *ast.RangeStmt:
			if t := gs.pass.TypesInfo.TypeOf(x.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					v.longLived = true
					ch := chanVar(gs.pass, x.X)
					evid(ch != nil && (gs.closed[ch] || params[ch]), "ranges over a closable channel")
				}
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				ch := chanVar(gs.pass, x.X)
				evid(ch != nil && (gs.closed[ch] || params[ch]), "receives from a channel closed in package")
				evid(isDoneCall(gs.pass, x.X), "watches a context")
			}
		case *ast.CallExpr:
			evid(isDoneCall(gs.pass, x), "watches a context")
			if name, isMethod := calleeName(gs.pass, x); isMethod {
				evid(strings.HasPrefix(name, "Accept") || strings.HasPrefix(name, "Read") || strings.HasPrefix(name, "Recv"),
					"loops on blocking conn I/O; closing the conn stops it")
			}
		case *ast.DeferStmt:
			if name, isMethod := calleeName(gs.pass, x.Call); isMethod && name == "Done" {
				if isWaitGroup(gs.pass.TypesInfo.TypeOf(selRecv(x.Call))) {
					evid(true, "joined via WaitGroup")
				}
			}
		}
		return true
	})
	if v.longLived {
		return v
	}
	// No loop of its own: the long-lived loop may live in a same-package
	// helper this body calls (e.g. run() → loop()).
	var out verdict
	ast.Inspect(body, func(n ast.Node) bool {
		if out.longLived {
			return false
		}
		switch n.(type) {
		case *ast.GoStmt, *ast.FuncLit:
			// A goroutine or closure the body hands off is not the
			// body's own loop.
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := staticCallee(gs.pass, call)
		if callee == nil || callee.Pkg() != gs.pass.Pkg {
			return true
		}
		if cv := gs.classifyFunc(callee); cv.longLived {
			out = cv
			// The wrapper's own evidence also counts (e.g. it passed a
			// quit channel down, or holds the WaitGroup join).
			if !out.stoppable && v.stoppable {
				out.stoppable, out.why = true, v.why
			}
		}
		return true
	})
	if out.longLived {
		return out
	}
	return v
}

// launchDesc names what a go statement launches, for the diagnostic.
func launchDesc(pass *analysis.Pass, call *ast.CallExpr) string {
	if _, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return "the launched func literal runs an unbounded loop"
	}
	if fn := staticCallee(pass, call); fn != nil {
		return fn.FullName() + " runs an unbounded loop"
	}
	return "it runs an unbounded loop"
}

// chanVar resolves a channel expression to the field or variable that
// holds it: sh.quit → the quit field var, done → the local/param var.
func chanVar(pass *analysis.Pass, e ast.Expr) *types.Var {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, _ := pass.TypesInfo.ObjectOf(x).(*types.Var)
		return v
	case *ast.SelectorExpr:
		v, _ := pass.TypesInfo.ObjectOf(x.Sel).(*types.Var)
		return v
	}
	return nil
}

// isDoneCall reports whether e is ctx.Done() or ctx.Err() on a
// context.Context value.
func isDoneCall(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Done" && sel.Sel.Name != "Err") {
		return false
	}
	return isContextType(pass.TypesInfo.TypeOf(sel.X))
}

func isWaitGroup(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}

// calleeName returns a method call's selector name; ok is false for
// non-selector calls.
func calleeName(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	return sel.Sel.Name, true
}

// selRecv returns a method call's receiver expression, or nil.
func selRecv(call *ast.CallExpr) ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.X
	}
	return nil
}

// staticCallee resolves a call to its static *types.Func (same or other
// package); nil for dynamic calls.
func staticCallee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		if s, ok := pass.TypesInfo.Selections[fun]; ok {
			if _, isIface := s.Recv().Underlying().(*types.Interface); isIface {
				return nil
			}
		}
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.ObjectOf(id).(*types.Func)
	return fn
}

// isConstructorName reports whether a function name opens a
// constructor/lifecycle path for a long-lived type.
func isConstructorName(name string) bool {
	for _, p := range []string{"New", "Open", "Start", "Dial", "new", "open", "start", "dial"} {
		if strings.HasPrefix(name, p) {
			rest := name[len(p):]
			// "new" alone, or followed by an upper-case/word boundary:
			// newHub yes, newspaperRoute no.
			if rest == "" || rest[0] >= 'A' && rest[0] <= 'Z' {
				return true
			}
		}
	}
	return false
}
