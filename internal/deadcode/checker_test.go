package deadcode

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// config says which code the checker judges and where the walk starts.
type config struct {
	// Dir is the module whose non-test code must be reachable.
	Dir string
	// Extra are further module directories (a nested benchmark module, say)
	// whose every package-level declaration is a root.
	Extra []string
	// Allow maps a name (as name reports it) to the reason it may stay
	// unreached. Each entry is also a root of its own, so the helpers it
	// calls need no entry.
	Allow map[string]string
}

// result is what one check found.
type result struct {
	// Unreached lists every checked name the program's roots cannot reach,
	// sorted, each with its allowlist reason or the entry that reaches it
	// ("" when neither: a failure).
	Unreached []finding
	// Stale lists allowlist entries that name nothing or name code the
	// program reaches without them.
	Stale []string
}

type finding struct {
	Name, Pos, Reason string
}

// Failures lists what makes the check fail: names nothing reaches and
// stale allowlist entries.
func (r *result) Failures() []string {
	var out []string
	for _, f := range r.Unreached {
		if f.Reason == "" {
			out = append(out, fmt.Sprintf("%s: %s is reached by no binary, example, benchmark or facade API", f.Pos, f.Name))
		}
	}
	return append(out, r.Stale...)
}

// listPackage is the part of `go list -json` the checker reads.
type listPackage struct {
	Dir        string
	ImportPath string
	Name       string
	GoFiles    []string
	Module     *struct{ Path string }
}

func goTool() string {
	if p, err := exec.LookPath("go"); err == nil {
		return p
	}
	return filepath.Join(runtime.GOROOT(), "bin", "go")
}

func goList(dir string) ([]*listPackage, error) {
	cmd := exec.Command(goTool(), "list", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v: %s", dir, err, stderr.String())
	}
	var pkgs []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		p := new(listPackage)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// program type-checks the listed packages from source; every other import
// (the standard library) goes to the source importer.
type program struct {
	fset  *token.FileSet
	std   types.Importer
	list  map[string]*listPackage
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
	info  *types.Info
}

func (p *program) Import(path string) (*types.Package, error) {
	if tp, ok := p.pkgs[path]; ok {
		return tp, nil
	}
	lp, ok := p.list[path]
	if !ok {
		return p.std.Import(path)
	}
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(p.fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: p}
	tp, err := conf.Check(path, p.fset, files, p.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %v", path, err)
	}
	p.pkgs[path] = tp
	p.files[path] = files
	return tp, nil
}

// origin maps an instantiated generic function, method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// decl is one package-level declaration: a func, method, type, var or
// const. Fields are not declarations here.
type decl struct {
	name    string
	pos     string
	checked bool // in the judged module, so it must be reached
	refs    []types.Object
}

// walker marks declarations live from the roots, and marks the methods
// of live types that satisfy a used interface.
type walker struct {
	decls  map[types.Object]*decl
	live   map[types.Object]bool
	queue  []types.Object
	types  []*types.TypeName  // live program types, in marking order
	ifaces []*types.Interface // interfaces whose satisfying methods are live
	byName map[string][]int   // method name -> indices into ifaces
	seenIf map[*types.Interface]bool
	done   map[[2]any]bool    // (type, interface) pairs already checked
	onMark func(types.Object) // called once per newly live declaration
}

func (w *walker) addIface(it *types.Interface) {
	if it == nil || w.seenIf[it] || !it.IsMethodSet() || it.NumMethods() == 0 {
		return
	}
	w.seenIf[it] = true
	w.ifaces = append(w.ifaces, it)
	w.byName[it.Method(0).Name()] = append(w.byName[it.Method(0).Name()], len(w.ifaces)-1)
}

func (w *walker) mark(obj types.Object) {
	obj = origin(obj)
	if _, ok := w.decls[obj]; !ok || w.live[obj] {
		return
	}
	w.live[obj] = true
	if w.onMark != nil {
		w.onMark(obj)
	}
	w.queue = append(w.queue, obj)
	if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
		if it, ok := tn.Type().Underlying().(*types.Interface); ok {
			w.addIface(it)
		} else {
			w.types = append(w.types, tn)
		}
	}
}

// run drains the queue, then marks every method of a live type that
// satisfies a used interface, until nothing new is marked.
func (w *walker) run() {
	for {
		for len(w.queue) > 0 {
			obj := w.queue[len(w.queue)-1]
			w.queue = w.queue[:len(w.queue)-1]
			for _, r := range w.decls[obj].refs {
				w.mark(r)
			}
		}
		for _, tn := range w.types {
			w.satisfy(tn)
		}
		if len(w.queue) == 0 {
			return
		}
	}
}

func (w *walker) satisfy(tn *types.TypeName) {
	ptr := types.NewPointer(tn.Type())
	ms := types.NewMethodSet(ptr)
	for i := 0; i < ms.Len(); i++ {
		for _, k := range w.byName[ms.At(i).Obj().Name()] {
			it := w.ifaces[k]
			key := [2]any{tn, it}
			if w.done[key] {
				continue
			}
			w.done[key] = true
			if !types.Implements(ptr, it) {
				continue
			}
			for j := 0; j < it.NumMethods(); j++ {
				if sel := ms.Lookup(it.Method(j).Pkg(), it.Method(j).Name()); sel != nil {
					w.mark(sel.Obj())
				}
			}
		}
	}
}

// check loads cfg's modules, walks from the roots and reports what it
// cannot reach.
func check(cfg config) (*result, error) {
	main, err := goList(cfg.Dir)
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, lp := range main {
		if lp.Module != nil {
			modPath = lp.Module.Path
			break
		}
	}
	all := append([]*listPackage(nil), main...)
	extra := map[string]bool{}
	for _, dir := range cfg.Extra {
		pkgs, err := goList(dir)
		if err != nil {
			return nil, err
		}
		for _, lp := range pkgs {
			extra[lp.ImportPath] = true
		}
		all = append(all, pkgs...)
	}

	fset := token.NewFileSet()
	p := &program{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		list:  map[string]*listPackage{},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		info: &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		},
	}
	for _, lp := range all {
		p.list[lp.ImportPath] = lp
	}
	for _, lp := range all {
		if _, err := p.Import(lp.ImportPath); err != nil {
			return nil, err
		}
	}

	name := func(obj types.Object) string {
		rel := strings.TrimPrefix(obj.Pkg().Path(), modPath+"/")
		if obj.Pkg().Path() == modPath {
			rel = obj.Pkg().Name()
		}
		if f, ok := obj.(*types.Func); ok {
			if recv := f.Type().(*types.Signature).Recv(); recv != nil {
				t := recv.Type()
				if pt, ok := t.(*types.Pointer); ok {
					t = pt.Elem()
				}
				return rel + "." + t.(*types.Named).Obj().Name() + "." + f.Name()
			}
		}
		return rel + "." + obj.Name()
	}

	decls := map[types.Object]*decl{}
	byName := map[string]types.Object{}
	var roots []types.Object
	refsIn := func(nodes ...ast.Node) []types.Object {
		var refs []types.Object
		for _, n := range nodes {
			if n == nil {
				continue
			}
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := p.info.Uses[id]; obj != nil && obj.Pkg() != nil {
						refs = append(refs, origin(obj))
					}
				}
				return true
			})
		}
		return refs
	}
	for _, lp := range all {
		isExtra := extra[lp.ImportPath]
		isFacade := lp.ImportPath == modPath
		// add records one declared name; root marks names the walk starts
		// from whatever the package is (init functions, blank names).
		add := func(id *ast.Ident, refs []types.Object, root bool) {
			obj := p.info.Defs[id]
			if obj == nil {
				return
			}
			root = root || id.Name == "_"
			d := &decl{
				name:    name(obj),
				pos:     relPos(fset.Position(id.Pos()), cfg.Dir),
				checked: !isExtra && !root,
				refs:    refs,
			}
			decls[obj] = d
			if d.checked {
				byName[d.name] = obj
			}
			if root || isExtra || (lp.Name == "main" && id.Name == "main") ||
				(isFacade && obj.Exported() && obj.Parent() == obj.Pkg().Scope()) {
				roots = append(roots, obj)
			}
		}
		for _, f := range p.files[lp.ImportPath] {
			for _, dl := range f.Decls {
				switch dl := dl.(type) {
				case *ast.FuncDecl:
					add(dl.Name, refsIn(dl), dl.Recv == nil && dl.Name.Name == "init")
				case *ast.GenDecl:
					var prev *ast.ValueSpec
					for _, spec := range dl.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add(s.Name, refsIn(s), false)
						case *ast.ValueSpec:
							refs := refsIn(s)
							if dl.Tok == token.CONST && s.Type == nil && len(s.Values) == 0 && prev != nil {
								// An implicit repetition names what the last
								// explicit spec named.
								refs = append(refs, refsIn(prev.Type)...)
								for _, v := range prev.Values {
									refs = append(refs, refsIn(v)...)
								}
							} else {
								prev = s
							}
							for _, id := range s.Names {
								add(id, refs, false)
							}
						}
					}
				}
			}
		}
	}

	// The facade's exported types expose their exported methods, aliases of
	// internal types included.
	if fp := p.pkgs[modPath]; fp != nil {
		for _, n := range fp.Scope().Names() {
			tn, ok := fp.Scope().Lookup(n).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			ms := types.NewMethodSet(types.NewPointer(tn.Type()))
			for i := 0; i < ms.Len(); i++ {
				if m := ms.At(i).Obj(); m.Exported() {
					roots = append(roots, m)
				}
			}
		}
	}

	w := &walker{
		decls:  decls,
		live:   map[types.Object]bool{},
		byName: map[string][]int{},
		done:   map[[2]any]bool{},
		seenIf: map[*types.Interface]bool{},
	}
	// The standard library is outside the walk, so every interface it
	// declares counts as used (fmt.Stringer, io.Writer, sort.Interface...).
	w.addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seenPkg := map[*types.Package]bool{}
	var addStd func(*types.Package)
	addStd = func(pkg *types.Package) {
		if seenPkg[pkg] {
			return
		}
		seenPkg[pkg] = true
		if _, ours := p.list[pkg.Path()]; !ours {
			for _, n := range pkg.Scope().Names() {
				if tn, ok := pkg.Scope().Lookup(n).(*types.TypeName); ok {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok {
						w.addIface(it)
					}
				}
			}
		}
		for _, imp := range pkg.Imports() {
			addStd(imp)
		}
	}
	for _, tp := range p.pkgs {
		addStd(tp)
	}

	for _, r := range roots {
		w.mark(r)
	}
	w.run()

	res := &result{}
	unreached := map[string]*finding{}
	for obj, d := range decls {
		if d.checked && !w.live[obj] {
			unreached[d.name] = &finding{Name: d.name, Pos: d.pos}
		}
	}
	// Judge every entry against the program's own reach before any entry
	// becomes a root, then walk from the entries in name order: a name an
	// entry reaches is reported with the first entry that reaches it.
	var reasoned []types.Object
	for _, e := range sortedKeys(cfg.Allow) {
		obj, ok := byName[e]
		switch {
		case !ok:
			res.Stale = append(res.Stale, fmt.Sprintf("allowlist entry %s names no declaration", e))
		case w.live[obj]:
			res.Stale = append(res.Stale, fmt.Sprintf("allowlist entry %s is stale: the program reaches it", e))
		default:
			unreached[e].Reason = cfg.Allow[e]
			reasoned = append(reasoned, obj)
		}
	}
	for _, obj := range reasoned {
		via := "via " + decls[obj].name
		w.onMark = func(o types.Object) {
			if f := unreached[decls[o].name]; f != nil && f.Reason == "" {
				f.Reason = via
			}
		}
		w.mark(obj)
		w.run()
	}
	for _, n := range sortedKeys(unreached) {
		res.Unreached = append(res.Unreached, *unreached[n])
	}
	return res, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func relPos(pos token.Position, dir string) string {
	if rel, err := filepath.Rel(dir, pos.Filename); err == nil {
		pos.Filename = rel
	}
	return pos.String()
}

// readAllow parses an allowlist: one "name reason..." entry per line;
// blank lines and lines starting with # are skipped. Every entry needs a
// reason.
func readAllow(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		name, reason, _ := strings.Cut(text, " ")
		reason = strings.TrimSpace(reason)
		if reason == "" {
			return nil, fmt.Errorf("%s:%d: entry %s gives no reason", path, line, name)
		}
		if _, dup := allow[name]; dup {
			return nil, fmt.Errorf("%s:%d: entry %s repeated", path, line, name)
		}
		allow[name] = reason
	}
	return allow, sc.Err()
}
