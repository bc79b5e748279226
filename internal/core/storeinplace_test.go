//go:build amd64 && !race

package core

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// packetPath are the functions a fast-path packet runs, by the symbol
// objdump prints: the receive step's parse, the vector's staged lookup,
// the per-packet ladder — every arm of it, the full classification of a
// handshake, untracked or unparsed packet filling its result in place —
// and the rule's execution; and what a set-up runs once a flow: the
// recorded modify and header action its NFs call once per action, the
// rule's build and consolidation, which take the recording by pointer and
// merge the header work in place, and the journal's rule image, which
// encodes the spans' actions through pointers.
var packetPath = []string{
	"packet.(*Packet).Parse",
	"core.(*Engine).stage",
	"core.(*Batch).flowFor",
	"core.(*Engine).process",
	"core.(*Engine).fastPathInto",
	"mat.(*GlobalRule).ExecHeader",
	"sfunc.Schedule.Execute",
	"sfunc.(*Batch).RunSequential",
	"core.(*Ctx).AddModify",
	"core.(*Ctx).AddHeaderAction",
	"core.(*Engine).consolidate",
	"core.(*Engine).build",
	"mat.In",
	"wal.appendRuleImage",
}

// inlinedHelpers are the small per-packet functions the compiler inlines
// into packetPath's, by source file (from this package's directory) and
// declaration. Inlined code keeps its own source lines, so a helper is
// scanned in its callers; the gate checks that some scanned instruction
// is on its lines, or that it has a body of its own to scan.
var inlinedHelpers = []struct{ file, decl, sym string }{
	{"../packet/parse.go", "Packet.FlowKey", "packet.(*Packet).FlowKey"},
	{"batch.go", "Engine.classifyFast", "core.(*Engine).classifyFast"},
	{"engine.go", "served", "core.served"},
}

// stackReload is a 16-byte load from the frame: the copy out of a stack
// temporary (DESIGN §16, "Stores in place").
var stackReload = regexp.MustCompile(`\bMOVUPS (0x[0-9a-f]+)?\(SP\), X[0-9]+$`)

// TestPacketPathCopiesNoStackTemporary disassembles this package's test
// binary and fails on any stack-temporary reload in the per-packet
// functions. A composite literal assigned through a pointer, or a struct
// wider than two words passed by value, is built on the stack and copied
// out with 16-byte loads, each spanning two 8-byte stores the store
// buffer cannot forward: the load waits for the stores to drain.
func TestPacketPathCopiesNoStackTemporary(t *testing.T) {
	if v := runtime.Version(); !strings.HasPrefix(v, "go1.24") && !strings.HasPrefix(v, "devel go1.24") {
		t.Skipf("the gate reads go1.24's code generation; this is %s", v)
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go command to run objdump with: %v", err)
	}
	// go test strips the binary it runs of its symbol table, which
	// objdump needs: link this package's test binary again, from the
	// build cache, with one.
	bin := filepath.Join(t.TempDir(), "core.test")
	if out, err := exec.Command(goTool, "test", "-c", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go test -c: %v\n%s", err, out)
	}
	syms := append([]string(nil), packetPath...)
	for _, h := range inlinedHelpers {
		syms = append(syms, h.sym)
	}
	for i, s := range syms {
		syms[i] = "/" + regexp.QuoteMeta(s) + "$"
	}
	var stderr bytes.Buffer
	cmd := exec.Command(goTool, "tool", "objdump", "-s", strings.Join(syms, "|"), bin)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go tool objdump: %v: %s", err, stderr.Bytes())
	}

	bodies := map[string]bool{} // symbols with a body of their own
	lines := map[string]bool{}  // "file.go:N" of every scanned instruction
	var sym string
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) >= 2 && f[0] == "TEXT" {
			// github.com/…/internal/packet.(*Packet).Parse(SB)
			sym = strings.TrimSuffix(f[1], "(SB)")
			sym = sym[strings.LastIndexByte(sym, '/')+1:]
			bodies[sym] = true
			continue
		}
		if len(f) < 4 || sym == "" {
			continue
		}
		pos, asm := f[0], strings.Join(f[3:], " ")
		lines[pos] = true
		if stackReload.MatchString(asm) {
			t.Errorf("%s: %s at %s reloads a stack temporary", sym, asm, pos)
		}
	}
	for _, s := range packetPath {
		if !bodies[s] {
			t.Errorf("%s is not in the test binary: the gate scans nothing of it", s)
		}
	}
	for _, h := range inlinedHelpers {
		if !bodies[h.sym] && !scanned(t, lines, h.file, h.decl) {
			t.Errorf("%s has no body of its own and no scanned function inlines it", h.sym)
		}
	}
}

// scanned reports whether some scanned instruction is on the lines of
// the declaration decl ("Recv.Name") in file.
func scanned(t *testing.T, lines map[string]bool, file, decl string) bool {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || declName(fn) != decl {
			continue
		}
		base := filepath.Base(file)
		for n := fset.Position(fn.Pos()).Line; n <= fset.Position(fn.End()).Line; n++ {
			if lines[base+":"+strconv.Itoa(n)] {
				return true
			}
		}
		return false
	}
	t.Fatalf("%s declares no %s", file, decl)
	return false
}

// declName names a function declaration "Recv.Name", or "Name".
func declName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	if st, ok := typ.(*ast.StarExpr); ok {
		typ = st.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}
