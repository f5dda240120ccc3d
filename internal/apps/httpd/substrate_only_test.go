package httpd_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// wiring names what assembles a network by hand: the route and group
// setters (any receiver), and the backends' link, segment and attach
// constructors. The applications declare their networks as a
// substrate.Topology and build them with one Build call instead.
var wiring = map[string]bool{
	"AddRoute": true, "SetDefaultRoute": true, "AddMulticastRoute": true, "JoinGroup": true, "Attach": true,
	"netsim.Connect": true, "netsim.NewSegment": true,
	"rtnet.NewLink": true, "rtnet.NewUDPLink": true, "rtnet.NewRemoteLink": true, "rtnet.NewSegment": true, "rtnet.Line": true,
}

// TestAppLayerIsBackendNeutral keeps the applications on the substrate
// contract: in httpd, mpeg and audio only the experiment assemblers may
// name a backend, so the servers, clients, gateways, sources and
// feedback loops run on either; and no file, tests included, wires a
// network by hand.
func TestAppLayerIsBackendNeutral(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{".", "../mpeg", "../audio"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range files {
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				t.Fatalf("parsing %s: %v", name, err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				qualified := sel.Sel.Name
				if pkg, ok := sel.X.(*ast.Ident); ok {
					qualified = pkg.Name + "." + qualified
				}
				if wiring[sel.Sel.Name] || wiring[qualified] {
					t.Errorf("%s calls %s: declare the network as a substrate.Topology and build it", fset.Position(call.Pos()), qualified)
				}
				return true
			})
			if strings.HasSuffix(name, "_test.go") || filepath.Base(name) == "experiment.go" {
				continue
			}
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatalf("%s: bad import literal %s", name, imp.Path.Value)
				}
				for _, backend := range []string{"planp.dev/planp/internal/netsim", "planp.dev/planp/internal/rtnet"} {
					if path == backend || strings.HasPrefix(path, backend+"/") {
						t.Errorf("%s imports %s: only experiment.go may name a backend", name, path)
					}
				}
			}
		}
	}
}
