package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/cfg"
)

// LockOrderAnalyzer builds the module-wide lock acquisition graph and
// reports cycles — the potential deadlocks a per-function analysis
// cannot see.
//
// Locks are keyed by class, not instance: a struct-field mutex is named
// "pkg.Type.field" (service.hub.mu, fanout.shard.mu) and a
// package-level mutex "pkg.var", so the report reads as the named
// hierarchy the code was designed around. Within one function a
// may-held CFG dataflow (the lockio machinery) tracks which classes are
// held; acquiring class B or calling a function that may acquire B
// while class A is held contributes the edge A → B.
//
// Cross-package and cross-function propagation uses go/analysis facts:
// every function exports the transitive set of lock classes it may
// acquire (an object fact), and every package exports its accumulated
// edge list (a package fact), so each pass sees the full graph of its
// import closure and the topmost package assembles the module-wide
// graph. A cycle is reported in the package contributing its final
// edge, with the full acquisition chain and the site of every edge.
//
// Same-class nesting (holding one shard's mu while taking another's) is
// reported as a one-edge cycle: with unkeyed instances it is a
// self-deadlock on the same instance and an ordering hazard across
// instances.
//
// It still earns its place in today's idiom: seeding fanout.watch to
// take Group.mu inside shard.mu, and Attach to take shard.mu before it
// lets go of Group.mu, is reported as the cycle
// fanout.shard.mu → fanout.Group.mu → fanout.shard.mu.
var LockOrderAnalyzer = &analysis.Analyzer{
	Name:      "lockorder",
	Doc:       "detect lock-order cycles (potential deadlocks) across the whole module",
	Requires:  []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer},
	FactTypes: []analysis.Fact{(*lockOrderFact)(nil), (*lockGraphFact)(nil)},
	Run:       runLockOrder,
}

// lockOrderFact is exported on every function that may (transitively)
// acquire at least one named lock class.
type lockOrderFact struct {
	Acquires []string // sorted lock classes
}

func (*lockOrderFact) AFact() {}

func (f *lockOrderFact) String() string {
	return "acquires(" + strings.Join(f.Acquires, ", ") + ")"
}

// LockEdge is one acquisition-order edge: To was (or may be) acquired
// while From was held, at Site inside Fn.
type LockEdge struct {
	From, To string
	Site     string // "file:line", stable across packages
	Fn       string
}

// lockGraphFact accumulates a package's own edges plus every edge
// imported from its dependencies, so the graph flows up the import DAG.
type lockGraphFact struct {
	Edges []LockEdge
}

func (*lockGraphFact) AFact() {}

func (f *lockGraphFact) String() string {
	parts := make([]string, len(f.Edges))
	for i, e := range f.Edges {
		parts[i] = e.From + "→" + e.To
	}
	return "lockgraph(" + strings.Join(parts, ", ") + ")"
}

// ownEdge is a LockEdge contributed by the current package, with the
// position to report at.
type ownEdge struct {
	LockEdge
	pos token.Pos
}

// fnSummary is the per-function result of the CFG walk.
type fnSummary struct {
	direct    map[string]bool // classes locked directly
	calls     []*types.Func   // every resolvable callee (for transitive acquires)
	heldCalls []heldCall      // resolvable calls made while holding locks
	edges     []ownEdge       // direct Lock-while-held edges
	obj       *types.Func
	name      string
}

type heldCall struct {
	held   []string // classes held at the call site
	callee *types.Func
	pos    token.Pos
}

func runLockOrder(pass *analysis.Pass) (any, error) {
	sup := newSuppressor(pass)
	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)

	// Phase A: per-function CFG walk → direct acquires, held-call sites,
	// direct edges. Function literals are walked as anonymous functions
	// (their own held state) but do not contribute to any enclosing
	// summary: a closure usually runs on another goroutine, where the
	// launcher's locks are not held.
	var sums []*fnSummary
	byObj := map[*types.Func]*fnSummary{}
	insp.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
		var body *ast.BlockStmt
		var g *cfg.CFG
		var obj *types.Func
		name := "func literal"
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body = fn.Body
			if body != nil {
				g = cfgs.FuncDecl(fn)
			}
			obj, _ = pass.TypesInfo.ObjectOf(fn.Name).(*types.Func)
			name = fn.Name.Name
		case *ast.FuncLit:
			body = fn.Body
			g = cfgs.FuncLit(fn)
		}
		if body == nil || g == nil {
			return
		}
		sum := lockOrderWalk(pass, g, body)
		sum.obj = obj
		sum.name = name
		for i := range sum.edges {
			sum.edges[i].Fn = name
		}
		sums = append(sums, sum)
		if obj != nil {
			byObj[obj] = sum
		}
	})

	// Phase B: transitive may-acquire fixpoint over the package call
	// graph, seeded with imported facts for cross-package callees.
	acquiresOf := func(callee *types.Func, mayAcq map[*types.Func]map[string]bool) map[string]bool {
		if callee.Pkg() == pass.Pkg {
			if s := byObj[callee]; s != nil {
				return mayAcq[callee]
			}
			return nil
		}
		var fact lockOrderFact
		if pass.ImportObjectFact(callee, &fact) {
			set := map[string]bool{}
			for _, c := range fact.Acquires {
				set[c] = true
			}
			return set
		}
		return nil
	}
	mayAcq := map[*types.Func]map[string]bool{}
	for _, s := range sums {
		if s.obj != nil {
			set := map[string]bool{}
			for c := range s.direct {
				set[c] = true
			}
			mayAcq[s.obj] = set
		}
	}
	for changed := true; changed; {
		changed = false
		for _, s := range sums {
			if s.obj == nil {
				continue
			}
			set := mayAcq[s.obj]
			for _, callee := range s.calls {
				for c := range acquiresOf(callee, mayAcq) {
					if !set[c] {
						set[c] = true
						changed = true
					}
				}
			}
		}
	}

	// Phase C: edges from calls made while holding locks.
	var edges []ownEdge
	for _, s := range sums {
		edges = append(edges, s.edges...)
		for _, hc := range s.heldCalls {
			for c2 := range acquiresOf(hc.callee, mayAcq) {
				for _, c1 := range hc.held {
					edges = append(edges, ownEdge{
						LockEdge: LockEdge{From: c1, To: c2, Site: siteString(pass.Fset, hc.pos), Fn: s.name},
						pos:      hc.pos,
					})
				}
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].pos < edges[j].pos })

	// Phase D: export facts. Object facts carry each function's
	// transitive acquire set; the package fact carries our edges merged
	// with every dependency's.
	for _, s := range sums {
		if s.obj == nil || len(mayAcq[s.obj]) == 0 {
			continue
		}
		var classes []string
		for c := range mayAcq[s.obj] {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		pass.ExportObjectFact(s.obj, &lockOrderFact{Acquires: classes})
	}
	all := []LockEdge{}
	seen := map[[2]string]bool{}
	addEdge := func(e LockEdge) {
		k := [2]string{e.From, e.To}
		if seen[k] {
			return
		}
		seen[k] = true
		all = append(all, e)
	}
	for _, e := range edges {
		addEdge(e.LockEdge)
	}
	imports := append([]*types.Package{}, pass.Pkg.Imports()...)
	sort.Slice(imports, func(i, j int) bool { return imports[i].Path() < imports[j].Path() })
	for _, imp := range imports {
		var gf lockGraphFact
		if pass.ImportPackageFact(imp, &gf) {
			for _, e := range gf.Edges {
				addEdge(e)
			}
		}
	}
	pass.ExportPackageFact(&lockGraphFact{Edges: all})

	// Cycle detection over the assembled graph: report each cycle that
	// one of our own edges closes, once, at that edge's site.
	reportCycles(pass, sup, edges, all)
	return nil, nil
}

// reportCycles finds, for each own edge A→B, a shortest B→…→A path in
// the full graph; the concatenation is a cycle the current package
// completes. Cycles are deduplicated by their canonical rotation.
func reportCycles(pass *analysis.Pass, sup *suppressor, own []ownEdge, all []LockEdge) {
	next := map[string][]LockEdge{}
	for _, e := range all {
		next[e.From] = append(next[e.From], e)
	}
	for _, es := range next {
		sort.Slice(es, func(i, j int) bool { return es[i].To < es[j].To })
	}
	reported := map[string]bool{}
	ownSeen := map[[2]string]bool{}
	for _, oe := range own {
		if ownSeen[[2]string{oe.From, oe.To}] {
			continue // one report per distinct own edge
		}
		ownSeen[[2]string{oe.From, oe.To}] = true
		path := shortestPath(next, oe.To, oe.From)
		if path == nil {
			continue
		}
		cycle := append([]LockEdge{oe.LockEdge}, path...)
		key := canonicalCycle(cycle)
		if reported[key] {
			continue
		}
		reported[key] = true
		sup.report(pass, oe.pos, "lock-order cycle (potential deadlock): %s; acquiring %s while %s is held completes the cycle — pick one module-wide order for these locks",
			chainString(cycle), oe.To, oe.From)
	}
}

// shortestPath BFSes from -> to over the edge lists, returning the edge
// sequence, or nil. A zero-length path (from == to) returns an empty,
// non-nil slice so self-edges close one-edge cycles.
func shortestPath(next map[string][]LockEdge, from, to string) []LockEdge {
	if from == to {
		return []LockEdge{}
	}
	type visit struct {
		node string
		via  []LockEdge
	}
	queue := []visit{{node: from}}
	seen := map[string]bool{from: true}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, e := range next[v.node] {
			if e.To == to {
				return append(append([]LockEdge{}, v.via...), e)
			}
			if !seen[e.To] {
				seen[e.To] = true
				queue = append(queue, visit{node: e.To, via: append(append([]LockEdge{}, v.via...), e)})
			}
		}
	}
	return nil
}

// canonicalCycle keys a cycle by its rotation starting at the smallest
// class name, so the same cycle found from different edges dedups.
func canonicalCycle(cycle []LockEdge) string {
	min := 0
	for i := range cycle {
		if cycle[i].From < cycle[min].From {
			min = i
		}
	}
	var b strings.Builder
	for i := range cycle {
		e := cycle[(min+i)%len(cycle)]
		b.WriteString(e.From)
		b.WriteString("→")
	}
	b.WriteString(cycle[min].From)
	return b.String()
}

// chainString renders a cycle with per-edge provenance:
// A → B (fn at file:line) → A (fn at file:line).
func chainString(cycle []LockEdge) string {
	var b strings.Builder
	b.WriteString(cycle[0].From)
	for _, e := range cycle {
		fmt.Fprintf(&b, " → %s (%s at %s)", e.To, e.Fn, e.Site)
	}
	return b.String()
}

func siteString(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", shortFile(p.Filename), p.Line)
}

// shortFile trims a file path to its last two elements so sites stay
// readable and stable across checkouts.
func shortFile(path string) string {
	parts := strings.Split(path, "/")
	if len(parts) <= 2 {
		return path
	}
	return strings.Join(parts[len(parts)-2:], "/")
}

// lockClass names the lock behind a Lock/RLock receiver expression:
// "pkg.Type.field" for struct-field mutexes, "pkg.var" for
// package-level ones, "" for locks with no stable class (locals,
// parameters) — those are instance-anonymous and excluded from the
// graph.
func lockClass(pass *analysis.Pass, recv ast.Expr) string {
	switch e := recv.(type) {
	case *ast.ParenExpr:
		return lockClass(pass, e.X)
	case *ast.SelectorExpr:
		obj, ok := pass.TypesInfo.ObjectOf(e.Sel).(*types.Var)
		if !ok {
			return ""
		}
		if obj.IsField() {
			if owner := fieldOwner(pass, e); owner != "" {
				return owner + "." + obj.Name()
			}
			return ""
		}
		// Qualified package-level var: pkg.Mu.
		if obj.Parent() == obj.Pkg().Scope() {
			return pkgBase(obj.Pkg().Path()) + "." + obj.Name()
		}
		return ""
	case *ast.Ident:
		obj, ok := pass.TypesInfo.ObjectOf(e).(*types.Var)
		if !ok || obj.Pkg() == nil {
			return ""
		}
		if obj.Parent() == obj.Pkg().Scope() {
			return pkgBase(obj.Pkg().Path()) + "." + obj.Name()
		}
		return ""
	}
	return ""
}

// fieldOwner names the struct type a field selector hangs off:
// "pkg.Type". The receiver type (not the field's declaring type) keys
// the class, so embedded mutexes name the embedding type.
func fieldOwner(pass *analysis.Pass, sel *ast.SelectorExpr) string {
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok {
		return ""
	}
	t := s.Recv()
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return pkgBase(named.Obj().Pkg().Path()) + "." + named.Obj().Name()
}

// lockOrderWalk runs the may-held dataflow over one function body and
// collects its summary.
func lockOrderWalk(pass *analysis.Pass, g *cfg.CFG, body *ast.BlockStmt) *fnSummary {
	sum := &fnSummary{direct: map[string]bool{}}

	// Enumerate this body's lock expressions (keyed like lockio, by
	// receiver expression string) and map each to its class.
	keys := []string{}
	keyIndex := map[string]int{}
	classOf := []string{}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != ast.Node(body) {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if recv, name, ok := syncLockCall(pass, call); ok && (name == "Lock" || name == "RLock") {
			k := types.ExprString(recv)
			if _, dup := keyIndex[k]; !dup {
				keyIndex[k] = len(keys)
				keys = append(keys, k)
				classOf = append(classOf, lockClass(pass, recv))
			}
		}
		return true
	})
	for i := range keys {
		if classOf[i] != "" {
			sum.direct[classOf[i]] = true
		}
	}
	if len(keys) > 62 {
		return sum
	}

	heldClasses := func(held uint64, exclude int) []string {
		var out []string
		for i := range keys {
			if i == exclude || held&(1<<i) == 0 || classOf[i] == "" {
				continue
			}
			out = append(out, classOf[i])
		}
		sort.Strings(out)
		return out
	}

	// May-held dataflow, identical in structure to lockio's.
	preds := make([][]int, len(g.Blocks))
	for i, b := range g.Blocks {
		for _, s := range b.Succs {
			preds[s.Index] = append(preds[s.Index], i)
		}
	}
	in := make([]uint64, len(g.Blocks))
	out := make([]uint64, len(g.Blocks))
	for changed := true; changed; {
		changed = false
		for i, b := range g.Blocks {
			var newIn uint64
			for _, p := range preds[i] {
				newIn |= out[p]
			}
			newOut := newIn
			for _, n := range b.Nodes {
				newOut = lockIOTransferNode(pass, n, keyIndex, newOut)
			}
			if newIn != in[i] || newOut != out[i] {
				in[i], out[i] = newIn, newOut
				changed = true
			}
		}
	}

	// Scan every node with its entry-held set: direct acquires while
	// held become edges; resolvable calls are recorded (held and not).
	for i, b := range g.Blocks {
		held := in[i]
		for _, n := range b.Nodes {
			ast.Inspect(n, func(x ast.Node) bool {
				switch y := x.(type) {
				case *ast.FuncLit:
					return false
				case *ast.CallExpr:
					if recv, name, ok := syncLockCall(pass, y); ok {
						if name != "Lock" && name != "RLock" {
							return true
						}
						idx := keyIndex[types.ExprString(recv)]
						cls := classOf[idx]
						if cls == "" {
							return true
						}
						for _, from := range heldClasses(held, idx) {
							sum.edges = append(sum.edges, ownEdge{
								LockEdge: LockEdge{From: from, To: cls, Site: siteString(pass.Fset, y.Pos())},
								pos:      y.Pos(),
							})
						}
						return true
					}
					if callee := resolvedCallee(pass, y); callee != nil {
						sum.calls = append(sum.calls, callee)
						if hc := heldClasses(held, -1); len(hc) > 0 {
							sum.heldCalls = append(sum.heldCalls, heldCall{held: hc, callee: callee, pos: y.Pos()})
						}
					}
				}
				return true
			})
			held = lockIOTransferNode(pass, n, keyIndex, held)
		}
	}
	// Edge Fn names are filled by the caller once the summary is named.
	return sum
}

// resolvedCallee returns the static *types.Func a call resolves to, or
// nil for dynamic calls (interface methods, function values), which the
// analysis conservatively skips.
func resolvedCallee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		if s, ok := pass.TypesInfo.Selections[fun]; ok {
			// Interface method calls are dynamic: no single callee.
			if _, isIface := s.Recv().Underlying().(*types.Interface); isIface {
				return nil
			}
		}
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.ObjectOf(id).(*types.Func)
	if fn == nil {
		return nil
	}
	// Builtins and locks are handled elsewhere; skip sync itself.
	if fn.Pkg() == nil || fn.Pkg().Path() == "sync" {
		return nil
	}
	return fn
}
