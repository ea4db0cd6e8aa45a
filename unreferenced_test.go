package rls

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unreferencedAllow lists the exported internal identifiers that no
// non-test code names yet, each with the reason it stays exported. Keys
// are "pkg.Name" for top-level names and "pkg.Type.Method" for methods.
// An entry that becomes referenced or is no longer declared fails
// TestNoUnreferencedInternalExports, so the list can only shrink.
var unreferencedAllow = map[string]string{
	"sim.UntilActivations":       "activation-budget stop that sim and core tests run engines under",
	"stats.PowerFit":             "log-log fit for the T1 verdict's E[T] ~ n^β exponent (ROADMAP item 6)",
	"loadvec.PartitionOwner":     "sharded fold helper; goes with the sharded engine (ROADMAP item 1)",
	"loadvec.ValidateCuts":       "sharded fold helper; goes with the sharded engine (ROADMAP item 1)",
	"sim.Sharded.SetRepartition": "sharded repartition knob; goes with the sharded engine (ROADMAP item 1)",
	"sim.Sharded.GlobalConfig":   "sharded fold accessor; goes with the sharded engine (ROADMAP item 1)",
}

// unreferencedExempt names the internal packages that only tests import,
// so their exported helpers have no non-test caller by design.
var unreferencedExempt = map[string]bool{
	"internal/spectest": true,
	"internal/testutil": true,
}

// TestNoUnreferencedInternalExports fails on an exported top-level name
// or method declared under internal/ that no non-test Go file of the
// module or of perfbench/ names. The match is by identifier name only,
// with no type information: a dead method that shares its name with a
// live identifier anywhere passes. Method names that some scanned
// interface declares, and String and Error, are exempt, since a caller
// reaches those through the interface.
func TestNoUnreferencedInternalExports(t *testing.T) {
	srcs := map[string][]byte{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		srcs[filepath.ToSlash(path)] = b
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	problems, err := unreferencedExports(srcs, unreferencedAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// unreferencedExports parses srcs (slash-separated path → Go source) and
// returns one message per exported identifier under internal/ that no
// other identifier in srcs names, and one per allow entry that is no
// longer declared or is now referenced. The messages are sorted.
func unreferencedExports(srcs map[string][]byte, allow map[string]string) ([]string, error) {
	type decl struct {
		key    string
		ident  *ast.Ident
		method bool
	}
	var decls []decl
	declIdents := map[*ast.Ident]bool{}
	ifaceMethods := map[string]bool{"String": true, "Error": true}
	uses := map[string]int{}
	var files []*ast.File
	fset := token.NewFileSet()
	for p, src := range srcs {
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		dir := filepath.ToSlash(filepath.Dir(p))
		if !strings.HasPrefix(dir, "internal/") || unreferencedExempt[dir] {
			continue
		}
		pkg := f.Name.Name
		add := func(key string, id *ast.Ident, method bool) {
			if id.IsExported() {
				decls = append(decls, decl{pkg + "." + key, id, method})
				declIdents[id] = true
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name.Name, d.Name, false)
				} else if recv := recvTypeName(d.Recv.List[0].Type); recv != "" {
					add(recv+"."+d.Name.Name, d.Name, true)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name.Name, s.Name, false)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id.Name, id, false)
						}
					}
				}
			}
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, id := range m.Names {
						ifaceMethods[id.Name] = true
					}
				}
			case *ast.Ident:
				if !declIdents[n] {
					uses[n.Name]++
				}
			}
			return true
		})
	}
	var out []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		if uses[d.ident.Name] > 0 || (d.method && ifaceMethods[d.ident.Name]) {
			if _, ok := allow[d.key]; ok {
				out = append(out, "allowlist entry "+d.key+" is referenced now; delete the entry")
			}
			continue
		}
		if _, ok := allow[d.key]; !ok {
			out = append(out, d.key+" ("+fset.Position(d.ident.Pos()).String()+") is exported but named by no non-test code; delete it, move it into a _test.go file, or allowlist it with a reason")
		}
	}
	for key := range allow {
		if !declared[key] {
			out = append(out, "allowlist entry "+key+" is not declared; delete the entry")
		}
	}
	sort.Strings(out)
	return out, nil
}

// recvTypeName returns the base type name of a method receiver, looking
// through pointers and type parameters.
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// TestUnreferencedExportsScanner runs the gate's scanner on in-memory
// sources, so a scanner that passes everything fails here.
func TestUnreferencedExportsScanner(t *testing.T) {
	const used = "package a\n\nfunc Used() {}\n"
	const caller = "package main\n\nimport \"m/internal/a\"\n\nfunc main() { a.Used() }\n"
	cases := []struct {
		name  string
		srcs  map[string]string
		allow map[string]string
		want  []string // substrings, one per expected message, in order
	}{
		{
			name: "referenced func passes",
			srcs: map[string]string{"internal/a/a.go": used, "main.go": caller},
		},
		{
			name: "unreferenced func fails",
			srcs: map[string]string{"internal/a/a.go": used + "\nfunc Dead() {}\n", "main.go": caller},
			want: []string{"a.Dead (internal/a/a.go:5:6) is exported but named by no non-test code"},
		},
		{
			name: "unreferenced method fails",
			srcs: map[string]string{
				"internal/a/a.go": used + "\ntype T struct{}\n\nfunc (*T) Dead() {}\n",
				"main.go":         caller,
			},
			want: []string{"a.T.Dead (internal/a/a.go:7:11)"},
		},
		{
			name: "method reached only through an interface passes",
			srcs: map[string]string{
				"internal/a/a.go": used + "\ntype Namer interface{ Name() string }\n\ntype T struct{}\n\nfunc (T) Name() string { return \"t\" }\n\nvar _ Namer = T{}\n",
				"main.go":         caller,
			},
		},
		{
			name: "outside internal and exempt packages pass",
			srcs: map[string]string{
				"internal/a/a.go":        used,
				"internal/testutil/u.go": "package testutil\n\nfunc Helper() {}\n",
				"main.go":                caller + "\nfunc Exported() {}\n",
			},
		},
		{
			name:  "allowlisted func passes",
			srcs:  map[string]string{"internal/a/a.go": used + "\nfunc Kept() {}\n", "main.go": caller},
			allow: map[string]string{"a.Kept": "reason"},
		},
		{
			name:  "stale allowlist entry fails when not declared",
			srcs:  map[string]string{"internal/a/a.go": used, "main.go": caller},
			allow: map[string]string{"a.Gone": "reason"},
			want:  []string{"allowlist entry a.Gone is not declared"},
		},
		{
			name:  "stale allowlist entry fails when referenced",
			srcs:  map[string]string{"internal/a/a.go": used, "main.go": caller},
			allow: map[string]string{"a.Used": "reason"},
			want:  []string{"allowlist entry a.Used is referenced now"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			srcs := map[string][]byte{}
			for p, s := range c.srcs {
				srcs[p] = []byte(s)
			}
			got, err := unreferencedExports(srcs, c.allow)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(c.want) {
				t.Fatalf("got %d messages %q, want %d", len(got), got, len(c.want))
			}
			for i, w := range c.want {
				if !strings.Contains(got[i], w) {
					t.Errorf("message %d = %q, want it to contain %q", i, got[i], w)
				}
			}
		})
	}
}
