package harness

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestHarnessBuildsThroughSpec keeps the composition matrix in rls.Spec:
// no non-test file of the harness may construct a direct or jump engine
// (sim.NewEngine, NewJumpEngine, NewStrictJumpEngine, NewGraphJumpEngine)
// or name one of the movers Spec chooses between (core.RLS,
// core.StrictRLS, graphs.GraphRLS, hetero.SpeedRLS and its constructor).
// Every such engine is built by build, through Spec.Engine.
func TestHarnessBuildsThroughSpec(t *testing.T) {
	banned := map[string]bool{
		"sim.NewEngine": true, "sim.NewJumpEngine": true,
		"sim.NewStrictJumpEngine": true, "sim.NewGraphJumpEngine": true,
		"core.RLS": true, "core.StrictRLS": true, "graphs.GraphRLS": true,
		"hetero.SpeedRLS": true, "hetero.NewSpeedRLS": true,
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && banned[pkg.Name+"."+sel.Sel.Name] {
				t.Errorf("%s: %s.%s; build the engine through rls.Spec (build)",
					fset.Position(sel.Pos()), pkg.Name, sel.Sel.Name)
			}
			return true
		})
	}
	if checked == 0 {
		t.Fatal("no harness source files found")
	}
}
