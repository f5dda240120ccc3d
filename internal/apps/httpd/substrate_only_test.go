package httpd_test

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestAppLayerIsBackendNeutral keeps the applications on the substrate
// contract: in httpd, mpeg and audio only the experiment assemblers may
// name a backend, so the servers, clients, gateways, sources and
// feedback loops run on either.
func TestAppLayerIsBackendNeutral(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{".", "../mpeg", "../audio"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") || filepath.Base(name) == "experiment.go" {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatalf("parsing %s: %v", name, err)
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
