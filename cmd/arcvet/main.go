// Command arcvet is the engine's invariant checker: five first-party
// analyzers over go/ast + go/types that mechanically enforce the
// concurrency and safety contracts the type system cannot express. It
// speaks the protocol `go vet -vettool` drives a tool with, so the go
// command does the package loading, export data and caching:
//
//	go build -o bin/arcvet ./cmd/arcvet
//	go vet -vettool=bin/arcvet ./...
//
// or simply `make arcvet`. The suite:
//
//	snapimmut     committed snapshots are immutable; mutate WriteSet clones only
//	hookreentry   commit hooks / barrier callbacks must not re-enter the store
//	boundaryguard engine/server entry points need a recover-to-PanicError guard
//	cancelpoll    row-pull loops must poll, fixpoint rounds Options.Check
//	errcmp        wrapped sentinel errors require errors.Is, not ==
//
// Each analyzer's package doc states the invariant, why violating it is
// unsound, and the //arcvet:ignore escape hatch (which requires a
// written reason). See docs/INVARIANTS.md for the overview.
//
// The protocol is three invocations, and arcvet accepts nothing else:
//
//	arcvet -V=full   print a version line ending in a hash of this executable
//	arcvet -flags    print the flags the tool accepts, as JSON: none
//	arcvet unit.cfg  check the one package the JSON file describes
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"strings"

	"repro/internal/analysis/arcvetutil"
	"repro/internal/analysis/boundaryguard"
	"repro/internal/analysis/cancelpoll"
	"repro/internal/analysis/errcmp"
	"repro/internal/analysis/hookreentry"
	"repro/internal/analysis/snapimmut"
)

var analyzers = []*arcvetutil.Analyzer{
	boundaryguard.Analyzer,
	cancelpoll.Analyzer,
	errcmp.Analyzer,
	hookreentry.Analyzer,
	snapimmut.Analyzer,
}

func main() {
	if len(os.Args) == 2 {
		switch arg := os.Args[1]; {
		case arg == "-V=full":
			// The go command keys its vet cache on the last field, so it
			// must change whenever the tool does.
			exe, err := os.Executable()
			if err != nil {
				fatal(err)
			}
			data, err := os.ReadFile(exe)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("arcvet version devel buildID=%x\n", sha256.Sum256(data))
			return
		case arg == "-flags":
			fmt.Println("[]")
			return
		case strings.HasSuffix(arg, ".cfg"):
			n, err := vet(arg)
			if err != nil {
				fatal(err)
			}
			if n > 0 {
				os.Exit(1)
			}
			return
		}
	}
	fmt.Fprintln(os.Stderr, "usage: go vet -vettool=bin/arcvet ./...")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "arcvet:", err)
	os.Exit(1)
}

// config is what arcvet reads of the compilation unit description the
// go command writes (cmd/go/internal/work.vetConfig).
type config struct {
	ImportPath                string
	Compiler                  string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string // import path in source -> package path
	PackageFile               map[string]string // package path -> export data file
	VetxOnly                  bool              // a dependency, visited only for facts
	SucceedOnTypecheckFailure bool              // the compiler will report it
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// vet checks the package cfgFile describes, prints its diagnostics as
// file:line:col: message and returns how many there were.
func vet(cfgFile string) (int, error) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		return 0, err
	}
	var cfg config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return 0, fmt.Errorf("decoding %s: %w", cfgFile, err)
	}
	if cfg.VetxOnly {
		return 0, nil // the analyzers keep no facts, so a dependency has nothing to say
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0, nil
			}
			return 0, err
		}
		files = append(files, f)
	}
	exports := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	tc := types.Config{
		Importer: importerFunc(func(importPath string) (*types.Package, error) {
			path, ok := cfg.ImportMap[importPath]
			if !ok {
				return nil, fmt.Errorf("can't resolve import %q", importPath)
			}
			return exports.Import(path)
		}),
		Sizes:     types.SizesFor(cfg.Compiler, build.Default.GOARCH),
		GoVersion: cfg.GoVersion,
	}
	info := arcvetutil.NewInfo()
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0, nil
		}
		return 0, err
	}

	diags := arcvetutil.Run(analyzers, fset, files, pkg, info)
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s\n", fset.Position(d.Pos), d.Message)
	}
	return len(diags), nil
}
