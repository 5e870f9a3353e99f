package lint

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// obsMayImport lists the module packages, besides internal/obs/...
// itself, that the observability packages may import.
var obsMayImport = map[string]bool{
	"msrnet/internal/atomicfile": true,
	"msrnet/internal/buildinfo":  true,
}

// TestObsLayering keeps the observability packages at the bottom of the
// import graph: a non-test file under internal/obs/ imports, from this
// module, only internal/obs/... and the obsMayImport leaves. Every
// package the DP and the daemon are built from can then be observed
// without an import cycle, and msrnetd's flight recorder does not drag
// the bench suite (and through it netgen and rsmt) into the daemon.
// What a report needs from a heavier package, its caller computes and
// passes in as a plain value.
func TestObsLayering(t *testing.T) {
	root := moduleRoot(t)
	var violations []string
	err := filepath.Walk(filepath.Join(root, "internal", "obs"), func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if !strings.HasPrefix(p, "msrnet/") || obsMayImport[p] ||
				p == "msrnet/internal/obs" || strings.HasPrefix(p, "msrnet/internal/obs/") {
				continue
			}
			violations = append(violations, rel+": imports "+p+
				" — internal/obs may import only internal/obs/..., internal/atomicfile and internal/buildinfo")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range violations {
		t.Error(v)
	}
}
