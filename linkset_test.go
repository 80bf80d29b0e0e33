package main

import (
	"bufio"
	"bytes"
	"context"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// linkAllowlist names the internal/ functions and methods that no
// shipped binary links but that stay in product code, each with the
// reason. An entry earns its place only when tests in more than one
// package need it; a helper that one package's tests use belongs in
// that package's _test.go. Keys are spelled as the test reports them.
var linkAllowlist = map[string]string{
	"internal/nexit.(*StaticEvaluator).Prefs":  staticEvaluator,
	"internal/nexit.(*StaticEvaluator).Commit": staticEvaluator,
	"internal/topology.(*Pair).Validate": "the pair invariant check that topology's " +
		"TestNewPairFindsSharedCities and pairsim's validate helper assert",
}

// staticEvaluator is the reason both StaticEvaluator methods stay.
const staticEvaluator = "the fixed-table evaluator that nexit's engine, reference and fuzz tests, " +
	"nexitwire's session, transcript and tamper tests and credits' session tests negotiate over"

// TestEveryInternalFuncIsLinked keeps internal/ free of code that only
// tests reach. It builds every main package under cmd/, examples/ and
// bench/ for the host GOARCH and for arm64, without inlining so that
// every function a binary calls keeps its own symbol, and reads the
// union of their text symbols with go tool nm. Every function or method
// declared in a non-test internal/ file that either build admits must
// be in that union or in linkAllowlist, whose every entry needs a
// reason and must still be unlinked.
func TestEveryInternalFuncIsLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every main twice")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	module := modulePath(t)
	arches := []string{runtime.GOARCH}
	if runtime.GOARCH != "arm64" {
		arches = append(arches, "arm64")
	}

	linked := map[string]bool{}
	for _, arch := range arches {
		bin := buildMains(ctx, t, []string{"GOARCH=" + arch}, []string{"-gcflags=all=-l"},
			"./cmd/...", "./examples/...", "./bench/...")
		entries, err := os.ReadDir(bin)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			out, err := exec.CommandContext(ctx, "go", "tool", "nm", filepath.Join(bin, e.Name())).Output()
			if err != nil {
				t.Fatalf("go tool nm %s: %v", e.Name(), err)
			}
			sc := bufio.NewScanner(bytes.NewReader(out))
			sc.Buffer(nil, 1<<20)
			for sc.Scan() {
				f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
				if len(f) == 3 && (f[1] == "T" || f[1] == "t") && strings.HasPrefix(f[2], module+"/") {
					for _, k := range symbolKeys(strings.TrimPrefix(f[2], module+"/")) {
						linked[k] = true
					}
				}
			}
		}
	}

	declared := map[string]bool{}
	var unlinked []string
	for _, d := range declaredFuncs(t, arches) {
		declared[d.name] = true
		_, allowed := linkAllowlist[d.name]
		switch {
		case linked[d.key] && allowed:
			t.Errorf("%s is linked now; drop it from linkAllowlist", d.name)
		case !linked[d.key] && !allowed:
			unlinked = append(unlinked, d.pos+": "+d.name)
		}
	}
	for name, reason := range linkAllowlist {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("linkAllowlist entry %s gives no reason", name)
		}
		if !declared[name] {
			t.Errorf("linkAllowlist entry %s names no function declared in internal/", name)
		}
	}
	sort.Strings(unlinked)
	for _, u := range unlinked {
		t.Errorf("no binary links %s", u)
	}
	if len(unlinked) > 0 {
		t.Logf("%d unlinked functions and methods: delete them, move a test oracle into its "+
			"package's _test.go, or allowlist one that tests in several packages need", len(unlinked))
	}
}

// modulePath reads the module path from go.mod.
func modulePath(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if p, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(p)
		}
	}
	t.Fatal("go.mod names no module")
	return ""
}

// symbolKeys maps a text symbol, with its module prefix removed, to the
// declaration keys it proves linked: "pkg/path.F" for a function and
// "pkg/path.T.M" for a method of either receiver kind. Instantiation
// brackets go, and so do closure, wrapper and method-value suffixes,
// which name the function they belong to ("F.func1", "F.gowrap1",
// "T.M-fm"). A symbol whose first element is a function yields that
// function and a key no declaration has; one whose first element is a
// type yields the method and the type name, which no function has.
func symbolKeys(sym string) []string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	sym = strings.ReplaceAll(b.String(), "-fm", "")
	slash := strings.LastIndexByte(sym, '/')
	dot := strings.IndexByte(sym[slash+1:], '.')
	if dot < 0 {
		return nil
	}
	pkg, rest := sym[:slash+1+dot], sym[slash+2+dot:]
	if strings.HasPrefix(rest, "(*") {
		if end := strings.IndexByte(rest, ')'); end > 0 {
			rest = rest[2:end] + rest[end+1:]
		}
	}
	parts := strings.SplitN(rest, ".", 3)
	keys := []string{pkg + "." + parts[0]}
	if len(parts) > 1 {
		keys = append(keys, pkg+"."+parts[0]+"."+parts[1])
	}
	return keys
}

// declaredFunc is one function or method declared in internal/.
type declaredFunc struct {
	key  string // as symbolKeys spells it: "internal/pkg.F" or "internal/pkg.T.M"
	name string // as reported and allowlisted: "internal/pkg.F", "internal/pkg.(*T).M"
	pos  string // file:line
}

// declaredFuncs lists every function and method, init aside, declared
// in a non-test .go file under internal/ that go/build admits for any
// of arches.
func declaredFuncs(t *testing.T, arches []string) []declaredFunc {
	t.Helper()
	var out []declaredFunc
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		admitted := false
		for _, arch := range arches {
			bc := build.Default
			bc.GOARCH = arch
			ok, err := bc.MatchFile(filepath.Dir(path), filepath.Base(path))
			if err != nil {
				return err
			}
			admitted = admitted || ok
		}
		if !admitted {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(path))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			key, name := fn.Name.Name, fn.Name.Name
			if fn.Recv != nil {
				typ, ptr := recvType(fn.Recv.List[0].Type)
				key = typ + "." + key
				if ptr {
					name = "(*" + typ + ")." + name
				} else {
					name = typ + "." + name
				}
			}
			out = append(out, declaredFunc{
				key:  pkg + "." + key,
				name: pkg + "." + name,
				pos:  fset.Position(fn.Pos()).String(),
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// recvType returns a receiver's type name, without type parameters, and
// whether it is a pointer receiver.
func recvType(e ast.Expr) (name string, ptr bool) {
	if s, ok := e.(*ast.StarExpr); ok {
		e, ptr = s.X, true
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = x.X
	case *ast.IndexListExpr:
		e = x.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name, ptr
	}
	return "?", ptr
}
