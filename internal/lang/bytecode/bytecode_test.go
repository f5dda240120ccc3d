package bytecode

import (
	"strings"
	"testing"

	"planp.dev/planp/internal/lang/parser"
	"planp.dev/planp/internal/lang/typecheck"
)

func compileSrc(t *testing.T, src string) *compiled {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := typecheck.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(info)
	if err != nil {
		t.Fatal(err)
	}
	return c.(*compiled)
}

func TestCompileShapes(t *testing.T) {
	c := compileSrc(t, `
val k : int = 3
fun double(x : int) : int = x * 2
channel network(ps : int, ss : int, p : ip*udp*blob) is
  (deliver(p); (double(ps) + k, ss))
`)
	if len(c.globals) != 1 || len(c.funs) != 1 || len(c.bodies) != 1 {
		t.Fatalf("globals/funs/bodies = %d/%d/%d", len(c.globals), len(c.funs), len(c.bodies))
	}
	if c.initStates[0] != nil {
		t.Error("no initstate expected")
	}
	body := c.bodies[0]
	if body.NumRegs < 4 {
		t.Errorf("body registers = %d", body.NumRegs)
	}
	last := body.Code[len(body.Code)-1]
	if last.Op != OpReturn {
		t.Errorf("last instruction %s, want return", last.Op)
	}
}

func TestOpcodeNames(t *testing.T) {
	if OpAdd.String() != "add" || OpCallPrim.String() != "callprim" {
		t.Error("opcode names")
	}
	if !strings.Contains(Op(250).String(), "250") {
		t.Error("unknown opcode should render numerically")
	}
	// The ISA table cannot grow a hole.
	for o := Op(0); o < numOps; o++ {
		if opNames[o] == "" {
			t.Errorf("opcode %d has no name", o)
		}
	}
}

// TestShortCircuitCompilation ensures andalso/orelse skip their RHS
// (counting instructions executed via a side effect would need hooks;
// instead verify via a division that would raise).
func TestShortCircuitNoRHSEvaluation(t *testing.T) {
	c := compileSrc(t, `
channel network(ps : int, ss : int, p : ip*udp*blob) is
  (deliver(p);
   (if false andalso (1 / 0 = 0) then 1
    else if true orelse (1 / 0 = 0) then 2 else 3, ss))
`)
	// Find conditional jumps in the body.
	body := c.bodies[0]
	jumps := 0
	for _, in := range body.Code {
		if in.Op == OpJumpIfF || in.Op == OpJumpIfT {
			jumps++
		}
	}
	if jumps < 3 {
		t.Errorf("expected short-circuit jumps, found %d", jumps)
	}
}

func TestTupleRegisterContiguity(t *testing.T) {
	// Wide tuples force contiguous register blocks; a miscompile here
	// would scramble element order.
	c := compileSrc(t, `
channel network(ps : int*int*int*int*int, ss : int, p : ip*udp*blob) is
  (deliver(p); ((#5 ps, #4 ps, #3 ps, #2 ps, #1 ps + blobLen(#3 p)), ss))
`)
	found := false
	for _, in := range c.bodies[0].Code {
		if in.Op == OpTuple && in.C == 5 {
			found = true
		}
	}
	if !found {
		t.Error("no 5-wide OpTuple emitted")
	}
}
