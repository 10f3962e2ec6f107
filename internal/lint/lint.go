// Package lint is periscopelint: a go/analysis suite enforcing the
// concurrency and ownership invariants this codebase has already been
// burned by. Each analyzer encodes one historical bug class:
//
//   - refpair: a *rtmp.SharedPayload reference created with SharePayload
//     must be Released on every exit path or handed off exactly once
//     (PR 3's refcounted fan-out; a missed Release leaks a pooled buffer,
//     an extra one corrupts the pool).
//   - lockio: no blocking operation (conn reads/writes, HTTP round
//     trips, bare channel sends, time.Sleep) may run while a
//     sync.Mutex/RWMutex is held, unless the mutex guards that very
//     connection (the seed chat bug: room.Broadcast wrote every member's
//     websocket under the room lock).
//   - ctxdetach: a goroutine whose result is awaited by coalesced
//     waiters (single-flight fills) must not capture the initiating
//     request's context.Context (the PR 4 initiator-disconnect bug: one
//     viewer hanging up failed the fill for everyone).
//   - lockorder: the module-wide lock acquisition graph must be acyclic.
//     Functions export the lock classes they may acquire and packages
//     export their accumulated edges as facts, so a cycle split across
//     packages (service holding its shard lock while hls takes a replica
//     lock, and vice versa elsewhere) is reported with its full chain.
//   - gostop: every long-lived goroutine launched from a constructor
//     path (New*/Open*/Start*/Dial*) must be provably stoppable — a
//     context, a quit channel closed on teardown, a WaitGroup join, or a
//     conn-lifetime read loop. The runtime half of this contract is
//     internal/leakcheck's TestMain harness.
//   - snapmono: counter fields folded into Snapshot/Stats aggregates
//     must only accumulate — no zeroing, decrementing or atomic Store —
//     so snapshots never dip under churn (the monotonicity invariant the
//     service and hls stats tests rely on).
//
// Deliberate exceptions are suppressed inline with
//
//	//lint:ignore periscopelint/<name> <reason>
//
// on (or immediately above) the offending line; the reason is mandatory.
// The suite runs in CI via cmd/periscopelint.
package lint

import (
	"go/ast"
	"go/token"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// Analyzers returns the full periscopelint suite in a stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		RefPairAnalyzer,
		LockIOAnalyzer,
		CtxDetachAnalyzer,
		LockOrderAnalyzer,
		GoStopAnalyzer,
		SnapMonoAnalyzer,
	}
}

// ignorePrefix introduces an inline suppression comment.
const ignorePrefix = "//lint:ignore "

// suppressor records, per file, the lines on which one analyzer's
// diagnostics are suppressed by //lint:ignore comments.
type suppressor struct {
	fset  *token.FileSet
	lines map[string]map[int]bool // filename -> suppressed lines
}

// newSuppressor scans every comment in the pass for suppressions naming
// this analyzer ("periscopelint/<name>", comma-separated lists allowed).
// A suppression covers the comment's own line (trailing form) and the
// line immediately after it (standalone form). A suppression with no
// reason is itself reported: exceptions must say why they are safe.
func newSuppressor(pass *analysis.Pass) *suppressor {
	s := &suppressor{fset: pass.Fset, lines: map[string]map[int]bool{}}
	target := "periscopelint/" + pass.Analyzer.Name
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, ignorePrefix)
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				names := strings.Split(fields[0], ",")
				match := false
				for _, n := range names {
					if n == target {
						match = true
					}
				}
				if !match {
					continue
				}
				if len(fields) < 2 {
					pass.Reportf(c.Pos(), "suppression of %s without a reason; write //lint:ignore %s <why this exception is safe>", target, target)
					continue
				}
				pos := s.fset.Position(c.Pos())
				m := s.lines[pos.Filename]
				if m == nil {
					m = map[int]bool{}
					s.lines[pos.Filename] = m
				}
				end := s.fset.Position(c.End())
				m[pos.Line] = true
				m[end.Line+1] = true
			}
		}
	}
	return s
}

// suppressed reports whether a diagnostic at pos is covered by an
// inline suppression.
func (s *suppressor) suppressed(pos token.Pos) bool {
	p := s.fset.Position(pos)
	return s.lines[p.Filename][p.Line]
}

// report emits a diagnostic unless suppressed.
func (s *suppressor) report(pass *analysis.Pass, pos token.Pos, format string, args ...any) {
	if s.suppressed(pos) {
		return
	}
	pass.Reportf(pos, format, args...)
}

// pkgBase returns the last element of a package path ("periscope/internal/rtmp"
// -> "rtmp"). Analyzer fixtures live under flat import paths, so rules
// that key on repo packages match by base name.
func pkgBase(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// baseIdent walks a selector chain (c.cw.buf -> c) to its base
// identifier; it returns nil for anything more exotic.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.CallExpr:
			e = x.Fun
		default:
			return nil
		}
	}
}
