package lint_test

import (
	"strings"
	"testing"

	"periscope/internal/lint"
	"periscope/internal/lint/linttest"
)

// Each analyzer must fire on its golden bad fixture (the historical bug
// class, one want comment per diagnostic) and stay quiet on the clean
// fixture exercising the idiomatic pattern. Both files live in the same
// fixture package, so a single Run covers red and green together.

func TestRefPair(t *testing.T) {
	linttest.Run(t, lint.RefPairAnalyzer, "refpair")
}

func TestLockIO(t *testing.T) {
	linttest.Run(t, lint.LockIOAnalyzer, "lockio")
}

func TestCtxDetach(t *testing.T) {
	linttest.Run(t, lint.CtxDetachAnalyzer, "ctxdetach")
}

func TestLockOrder(t *testing.T) {
	linttest.Run(t, lint.LockOrderAnalyzer, "lockorder")
}

// TestLockOrderCrossPackage: the dependency establishes Registry.Mu →
// Index.Mu and exports acquire facts; the dependent package closes the
// cycle and reports it with the full chain naming both packages' sites.
func TestLockOrderCrossPackage(t *testing.T) {
	linttest.Run(t, lint.LockOrderAnalyzer, "lockorder2/app")
}

func TestGoStop(t *testing.T) {
	linttest.Run(t, lint.GoStopAnalyzer, "gostop")
}

// TestGoStopCrossPackage: lib classifies its loops and exports
// long-lived facts; the dependent constructor launching the unstoppable
// one is flagged at the launch site.
func TestGoStopCrossPackage(t *testing.T) {
	linttest.Run(t, lint.GoStopAnalyzer, "gostop2/app")
}

func TestSnapMono(t *testing.T) {
	linttest.Run(t, lint.SnapMonoAnalyzer, "snapmono")
}

// TestSnapMonoCrossPackage: lib marks Stats.Fills as a monotonic
// counter; the dependent package's reset and decrement are flagged via
// the imported fact.
func TestSnapMonoCrossPackage(t *testing.T) {
	linttest.Run(t, lint.SnapMonoAnalyzer, "snapmono2/app")
}

// TestSuppressionRequiresReason: an //lint:ignore with no reason does
// not suppress, and is reported in its own right. (Not expressible as a
// want comment: the marker would parse as the reason.)
func TestSuppressionRequiresReason(t *testing.T) {
	got := linttest.Diagnostics(t, lint.LockIOAnalyzer, "suppress")
	if len(got) != 2 {
		t.Fatalf("want 2 diagnostics (reasonless suppression + unsuppressed sleep), got %d: %q", len(got), got)
	}
	if !strings.Contains(got[0], "suppression of periscopelint/lockio without a reason") {
		t.Errorf("missing reasonless-suppression diagnostic: %q", got[0])
	}
	if !strings.Contains(got[1], "time.Sleep while mu is held") {
		t.Errorf("sleep was suppressed by a reasonless //lint:ignore: %q", got[1])
	}
}

// TestSuppressionMultiPackage: the reasonless-ignore rule holds for
// dependency packages analyzed as part of a dependent's closure — the
// fixture's findings live in dep, the target is app.
func TestSuppressionMultiPackage(t *testing.T) {
	got := linttest.Diagnostics(t, lint.LockIOAnalyzer, "suppressmulti/app")
	if len(got) != 2 {
		t.Fatalf("want 2 diagnostics (reasonless suppression + unsuppressed send in dep), got %d: %q", len(got), got)
	}
	if !strings.Contains(got[0], "dep.go") || !strings.Contains(got[0], "suppression of periscopelint/lockio without a reason") {
		t.Errorf("missing reasonless-suppression diagnostic from dependency package: %q", got[0])
	}
	if !strings.Contains(got[1], "channel send") || !strings.Contains(got[1], "b.mu is held") {
		t.Errorf("send was suppressed by a reasonless //lint:ignore in a dependency: %q", got[1])
	}
}

// TestSuiteComplete pins the suite composition CI runs.
func TestSuiteComplete(t *testing.T) {
	want := []string{"refpair", "lockio", "ctxdetach", "lockorder", "gostop", "snapmono"}
	got := lint.Analyzers()
	if len(got) != len(want) {
		t.Fatalf("Analyzers() = %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("Analyzers()[%d] = %s, want %s", i, a.Name, want[i])
		}
	}
}
