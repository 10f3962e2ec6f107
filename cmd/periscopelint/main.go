// Command periscopelint runs the repo's custom go/analysis suite
// (internal/lint): refpair, lockio, ctxdetach, plus the
// cross-package fact-driven checks lockorder, gostop and snapmono.
//
// It speaks the unitchecker protocol, so the canonical invocation is as
// a vet tool:
//
//	go vet -vettool=$(go env GOPATH)/bin/periscopelint ./...
//
// For convenience it also accepts package patterns directly and
// re-execs itself through the go command:
//
//	go run ./cmd/periscopelint ./...
//
// Exit status is non-zero when any diagnostic is reported.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"strings"

	"golang.org/x/tools/go/analysis/unitchecker"

	"periscope/internal/lint"
)

func main() {
	// The unitchecker protocol invokes the tool with -V=full, -flags, or
	// a *.cfg file. Anything else is a user typing package patterns:
	// re-exec via `go vet -vettool=<self>` so the go command does the
	// loading and caching.
	if patterns := packagePatterns(os.Args[1:]); patterns != nil {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintln(os.Stderr, "periscopelint:", err)
			os.Exit(2)
		}
		args := append([]string{"vet", "-vettool=" + exe}, patterns...)
		cmd := exec.Command("go", args...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			if ee, ok := err.(*exec.ExitError); ok {
				os.Exit(ee.ExitCode())
			}
			fmt.Fprintln(os.Stderr, "periscopelint:", err)
			os.Exit(2)
		}
		return
	}
	unitchecker.Main(lint.Analyzers()...)
}

// packagePatterns returns the arguments when they are plain package
// patterns (./..., ./internal/hls), or nil when the invocation is the
// unitchecker protocol (flags or a .cfg file).
func packagePatterns(args []string) []string {
	if len(args) == 0 {
		return nil
	}
	for _, a := range args {
		if strings.HasPrefix(a, "-") || strings.HasSuffix(a, ".cfg") {
			return nil
		}
	}
	return args
}
