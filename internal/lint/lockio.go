package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/cfg"
)

// LockIOAnalyzer reports blocking operations reachable while a
// sync.Mutex or sync.RWMutex is held in the same function body.
//
// Blocking operations are: reads/writes on values implementing
// net.Conn, read/write/send methods on the repo's websocket/rtmp
// connection types, net/http round trips, time.Sleep,
// sync.WaitGroup.Wait, and channel sends that are not guarded by a
// select with a default case.
//
// One shape is exempt: a connection may serialize its own writes under
// its own mutex (rtmp.Conn.writeMu). The exemption applies when the
// lock and the blocking receiver hang off the same base identifier
// (c.writeMu guards c.cw/c.nc); holding any broader lock — a room, hub,
// or registry mutex — across per-member I/O is exactly the seed chat
// bug and is always flagged.
//
// The check is intra-procedural: calls into other functions are not
// followed, so a helper that blocks must keep its own body clean.
//
// It still earns its place in today's idiom: a seeded conn.ReadMessage
// under chat.Server.mu in serveMember trips it. It no longer sees the
// member writes the seed bug was made of, because they now go through
// an interface: fanout.send holding sh.mu around g.hooks.Send passes
// clean, and so does chat.MemberConn.WritePrepared under Room.mu. Those
// locks stay free of member I/O by the fan-out core's design, not by
// this check.
var LockIOAnalyzer = &analysis.Analyzer{
	Name:     "lockio",
	Doc:      "report blocking I/O, sleeps and bare channel sends while a mutex is held",
	Requires: []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer},
	Run:      runLockIO,
}

func runLockIO(pass *analysis.Pass) (any, error) {
	sup := newSuppressor(pass)
	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)
	netConn := findNetConn(pass.Pkg)

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
		lockIOCheck(pass, sup, g, body, netConn)
	})
	return nil, nil
}

// lockKey is one distinct mutex expression locked in a function.
type lockKey struct {
	key  string     // types.ExprString of the receiver (e.g. "sh.mu")
	base *types.Var // base identifier's object, for the same-conn exemption
	pos  token.Pos  // first Lock site, for the message
	rw   bool       // RLock/RUnlock family
}

// syncLockCall matches m.Lock/RLock/Unlock/RUnlock where the method is
// sync.Mutex's or sync.RWMutex's, and returns the receiver expression.
func syncLockCall(pass *analysis.Pass, call *ast.CallExpr) (recv ast.Expr, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	fn, isFn := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, "", false
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		recvType := fn.Type().(*types.Signature).Recv().Type()
		s := recvType.String()
		if !strings.HasSuffix(s, "sync.Mutex") && !strings.HasSuffix(s, "sync.RWMutex") {
			return nil, "", false
		}
		return sel.X, fn.Name(), true
	}
	return nil, "", false
}

// lockIOCheck runs a may-held forward dataflow over the CFG: a bitmask
// of locks possibly held reaches every node, and blocking operations
// found in a node with any foreign lock held are reported.
func lockIOCheck(pass *analysis.Pass, sup *suppressor, g *cfg.CFG, body *ast.BlockStmt, netConn *types.Interface) {
	// Pass 1 (syntactic, this body only): enumerate lock keys and the
	// channel sends exempted by the select+default pattern.
	keys := []*lockKey{}
	keyIndex := map[string]int{}
	exemptSends := map[*ast.SendStmt]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != ast.Node(body) {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if recv, name, ok := syncLockCall(pass, x); ok && (name == "Lock" || name == "RLock") {
				k := types.ExprString(recv)
				if _, dup := keyIndex[k]; !dup {
					var base *types.Var
					if id := baseIdent(recv); id != nil {
						base, _ = pass.TypesInfo.ObjectOf(id).(*types.Var)
					}
					keyIndex[k] = len(keys)
					keys = append(keys, &lockKey{key: k, base: base, pos: x.Pos(), rw: name == "RLock"})
				}
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if hasDefault {
				for _, c := range x.Body.List {
					if cc, ok := c.(*ast.CommClause); ok {
						if send, ok := cc.Comm.(*ast.SendStmt); ok {
							exemptSends[send] = true
						}
					}
				}
			}
		}
		return true
	})
	if len(keys) == 0 || len(keys) > 62 {
		return
	}

	// Pass 2: dataflow. in[b] = union over preds of out[pred].
	// cfg.Block only records successors, so derive the predecessors.
	preds := make([][]int, len(g.Blocks))
	for i, b := range g.Blocks {
		for _, s := range b.Succs {
			preds[s.Index] = append(preds[s.Index], i)
		}
	}
	in := make([]uint64, len(g.Blocks))
	out := make([]uint64, len(g.Blocks))
	changed := true
	transfer := func(b *cfg.Block, held uint64) uint64 {
		for _, n := range b.Nodes {
			held = lockIOTransferNode(pass, n, keyIndex, held)
		}
		return held
	}
	for changed {
		changed = false
		for i, b := range g.Blocks {
			var newIn uint64
			for _, p := range preds[i] {
				newIn |= out[p]
			}
			newOut := transfer(b, newIn)
			if newIn != in[i] || newOut != out[i] {
				in[i], out[i] = newIn, newOut
				changed = true
			}
		}
	}

	// Pass 3: report blocking ops under a may-held foreign lock.
	for i, b := range g.Blocks {
		held := in[i]
		for _, n := range b.Nodes {
			if held != 0 {
				lockIOScanNode(pass, sup, n, keys, held, exemptSends, netConn)
			}
			held = lockIOTransferNode(pass, n, keyIndex, held)
		}
	}
}

// lockIOTransferNode updates the held bitmask for one CFG node. A defer
// of Unlock does not clear the bit: the lock stays held until return.
func lockIOTransferNode(pass *analysis.Pass, n ast.Node, keyIndex map[string]int, held uint64) uint64 {
	ast.Inspect(n, func(x ast.Node) bool {
		switch y := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			return false // deferred unlocks release only at return
		case *ast.CallExpr:
			if recv, name, ok := syncLockCall(pass, y); ok {
				if idx, ok := keyIndex[types.ExprString(recv)]; ok {
					switch name {
					case "Lock", "RLock":
						held |= 1 << idx
					case "Unlock", "RUnlock":
						held &^= 1 << idx
					}
				}
			}
		}
		return true
	})
	return held
}

// lockIOScanNode reports blocking operations in one node.
func lockIOScanNode(pass *analysis.Pass, sup *suppressor, n ast.Node, keys []*lockKey, held uint64, exemptSends map[*ast.SendStmt]bool, netConn *types.Interface) {
	heldDesc := func(connBase *types.Var) (string, token.Pos, bool) {
		for i, k := range keys {
			if held&(1<<i) == 0 {
				continue
			}
			if connBase != nil && k.base != nil && k.base == connBase {
				continue // a conn may serialize its own I/O under its own lock
			}
			return k.key, k.pos, true
		}
		return "", token.NoPos, false
	}
	report := func(pos token.Pos, what string, connBase *types.Var) {
		key, lockPos, foreign := heldDesc(connBase)
		if !foreign {
			return
		}
		sup.report(pass, pos, "%s while %s is held (locked at %s); move the blocking operation outside the critical section or hand off through a bounded queue",
			what, key, pass.Fset.Position(lockPos))
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch y := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			if !exemptSends[y] {
				report(y.Pos(), "channel send without a select+default", nil)
			}
		case *ast.CallExpr:
			if what, connBase, ok := blockingCall(pass, y, netConn); ok {
				report(y.Pos(), what, connBase)
			}
		}
		return true
	})
}

// blockingCall classifies call as a blocking operation. For connection
// I/O it also returns the receiver's base identifier object so the
// same-conn exemption can apply.
func blockingCall(pass *analysis.Pass, call *ast.CallExpr, netConn *types.Interface) (string, *types.Var, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", nil, false
	}
	fn, ok := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", nil, false
	}
	pkgPath := fn.Pkg().Path()
	name := fn.Name()
	sig, _ := fn.Type().(*types.Signature)

	// Package-level calls: time.Sleep, http.Get/Post/PostForm/Head.
	if sig != nil && sig.Recv() == nil {
		if pkgPath == "time" && name == "Sleep" {
			return "time.Sleep", nil, true
		}
		if pkgPath == "net/http" {
			switch name {
			case "Get", "Post", "PostForm", "Head":
				return "net/http round trip (http." + name + ")", nil, true
			}
		}
		return "", nil, false
	}
	if sig == nil || sig.Recv() == nil {
		return "", nil, false
	}
	recvType := sig.Recv().Type()

	// sync.WaitGroup.Wait.
	if pkgPath == "sync" && name == "Wait" && strings.HasSuffix(recvType.String(), "sync.WaitGroup") {
		return "sync.WaitGroup.Wait", nil, true
	}

	// http.Client round trips.
	if pkgPath == "net/http" && strings.HasSuffix(recvType.String(), "http.Client") {
		switch name {
		case "Do", "Get", "Post", "PostForm", "Head":
			return "net/http round trip (http.Client." + name + ")", nil, true
		}
	}

	var connBase *types.Var
	if id := baseIdent(sel.X); id != nil {
		connBase, _ = pass.TypesInfo.ObjectOf(id).(*types.Var)
	}

	// Reads/writes on net.Conn implementations.
	if netConn != nil && (strings.HasPrefix(name, "Read") || strings.HasPrefix(name, "Write")) {
		t := pass.TypesInfo.TypeOf(sel.X)
		if t != nil && (types.Implements(t, netConn) || types.Implements(types.NewPointer(t), netConn)) {
			return "conn " + name + " (net.Conn)", connBase, true
		}
	}

	// The repo's own connection types: websocket.Conn, rtmp conns.
	base := pkgBase(pkgPath)
	if (base == "websocket" || base == "rtmp") &&
		(strings.HasPrefix(name, "Read") || strings.HasPrefix(name, "Write") || strings.HasPrefix(name, "Send")) {
		return base + " conn " + name, connBase, true
	}
	return "", nil, false
}

// findNetConn locates the net.Conn interface through the package's
// transitive imports; nil when the package cannot reach net.
func findNetConn(pkg *types.Package) *types.Interface {
	seen := map[*types.Package]bool{}
	var find func(p *types.Package) *types.Interface
	find = func(p *types.Package) *types.Interface {
		if seen[p] {
			return nil
		}
		seen[p] = true
		if p.Path() == "net" {
			if obj, ok := p.Scope().Lookup("Conn").(*types.TypeName); ok {
				if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
					return iface
				}
			}
			return nil
		}
		for _, imp := range p.Imports() {
			if iface := find(imp); iface != nil {
				return iface
			}
		}
		return nil
	}
	return find(pkg)
}
