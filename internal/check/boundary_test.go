package check

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOracleBoundary keeps the oracles out of the code they check, in
// the spirit of a leaked-internal-reference lint: no non-test Go file
// under internal/ (outside internal/check itself) or examples/ may
// import this package. An analysis or optimizer path that called an
// oracle would no longer be checked independently. cmd/spike (`spike
// check`) and perfbench's correctness gate remain the allowed
// importers.
func TestOracleBoundary(t *testing.T) {
	const self = "repro/internal/check"
	fset := token.NewFileSet()
	for _, root := range []string{"..", "../../examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path == filepath.Join("..", "check") || d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == self {
					t.Errorf("%s imports %s; only cmd/spike and perfbench may", path, self)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
