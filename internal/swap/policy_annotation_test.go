package swap

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// TestAcceptancePoliciesStayAnnotated pins the //nullgraph:hotpath
// directive on the per-space acceptance functions. The hotpathalloc
// analyzer only inspects annotated functions, so dropping a directive
// silently removes the alloc-free gate from that policy; this test
// turns that into a loud failure. stepVertex is intentionally absent —
// the vertex-labeled MH sweep is serial and map-backed by design (see
// the policy.go file doc).
func TestAcceptancePoliciesStayAnnotated(t *testing.T) {
	want := []string{"acceptSimple", "acceptLoopyStub", "acceptDirected", "reverseTriangle", "ArcEdge", "EdgeArc", "acceptAll", "probed", "rewirePair"}
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "policy.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	annotated := map[string]bool{}
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Doc == nil {
			continue
		}
		for _, c := range fn.Doc.List {
			if strings.TrimSpace(c.Text) == "//nullgraph:hotpath" {
				annotated[fn.Name.Name] = true
			}
		}
	}
	for _, name := range want {
		if !annotated[name] {
			t.Errorf("policy.go: %s lost its //nullgraph:hotpath directive; the hotpathalloc gate no longer covers it", name)
		}
	}
}
