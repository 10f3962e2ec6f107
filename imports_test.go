package periscope

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestEveryInternalPackageIsImported fails for a package under internal/
// that no other package imports. It reads the imports of every .go file
// in both modules (the root and bench/), tests included, so a package that
// only its own tests reach is named here: it runs in no study, scenario or
// workload, and is deleted or made load-bearing.
func TestEveryInternalPackageIsImported(t *testing.T) {
	fset := token.NewFileSet()
	packages := map[string]bool{} // import path of each internal package
	imported := map[string]bool{} // import paths some other directory imports
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (name == "vendor" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		self := path.Join("periscope", filepath.ToSlash(filepath.Dir(p)))
		if strings.HasPrefix(self, "periscope/internal/") && !strings.HasSuffix(p, "_test.go") {
			packages[self] = true
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, spec := range f.Imports {
			if ip, err := strconv.Unquote(spec.Path.Value); err == nil && ip != self {
				imported[ip] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for p := range packages {
		if !imported[p] {
			unused = append(unused, p)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("no other package imports %s", strings.Join(unused, ", "))
	}
}
