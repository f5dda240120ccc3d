// Package bytecode compiles checked PLAN-P programs to a register-based
// bytecode and executes them on a compact VM.
//
// The VM is the middle point of the engine ablation: it removes the AST
// walk (like the JIT) but keeps a per-instruction dispatch loop (like the
// interpreter). The paper contrasts its Tempo JIT with bytecode systems
// such as HiPEC's interpreter (§4); this engine makes that comparison
// measurable inside one codebase.
//
// No user-facing switch reaches it: the control plane's engine
// vocabulary (planprt.ParseConfig) names only the paper's interp and
// jit. Its only non-test callers are bench/planpbench's
// lang.codegen_bytecode_us and engine.invoke_ns.bytecode rungs and the
// compile workload's engine cross-check; the package goes with those
// rungs in the next change to the benchmark.
package bytecode

import (
	"fmt"

	"planp.dev/planp/internal/lang/ast"
	"planp.dev/planp/internal/lang/value"
)

// Op is a bytecode opcode.
type Op uint8

// Opcodes. Instructions use up to three register/immediate operands.
const (
	OpNop Op = iota

	OpConst  // R[A] = consts[B]
	OpMove   // R[A] = R[B]
	OpGlobal // R[A] = globals[B]

	OpProj  // R[A] = R[B].Vs[C]
	OpTuple // R[A] = tuple(R[B] .. R[B+C-1])

	OpJump    // pc = A
	OpJumpIfF // if !R[A] { pc = B }
	OpJumpIfT // if R[A] { pc = B }

	OpAdd // R[A] = R[B] + R[C]
	OpSub
	OpMul
	OpDiv
	OpMod
	OpNeg    // R[A] = -R[B]
	OpNot    // R[A] = !R[B]
	OpConcat // R[A] = R[B] ^ R[C]

	OpEqI // R[A] = R[B].I == R[C].I   (int/bool/char/host)
	OpNeI
	OpEqS // string equality
	OpNeS
	OpEqV // generic deep equality
	OpNeV
	OpLtI // ordering, int/char
	OpLeI
	OpGtI
	OpGeI
	OpLtS // ordering, string
	OpLeS
	OpGtS
	OpGeS

	OpCallPrim // R[A] = prims[B](R[C] .. R[C+nargs-1]); nargs in aux
	OpCallFun  // R[A] = funs[B](R[C] ...)
	OpSend     // send R[B] on channel names[A]; C = 0 remote, 1 neighbor
	OpRaise    // raise R[A].S

	OpTryPush // push handler at pc A
	OpTryPop  // pop handler

	OpReturn // return R[A]

	numOps // sentinel: every Op below it has an opNames row (TestOpcodeNames)
)

var opNames = [numOps]string{
	OpNop: "nop", OpConst: "const", OpMove: "move", OpGlobal: "global",
	OpProj: "proj", OpTuple: "tuple", OpJump: "jump", OpJumpIfF: "jumpf",
	OpJumpIfT: "jumpt", OpAdd: "add", OpSub: "sub", OpMul: "mul",
	OpDiv: "div", OpMod: "mod", OpNeg: "neg", OpNot: "not",
	OpConcat: "concat", OpEqI: "eqi", OpNeI: "nei", OpEqS: "eqs",
	OpNeS: "nes", OpEqV: "eqv", OpNeV: "nev", OpLtI: "lti", OpLeI: "lei",
	OpGtI: "gti", OpGeI: "gei", OpLtS: "lts", OpLeS: "les", OpGtS: "gts",
	OpGeS: "ges", OpCallPrim: "callprim", OpCallFun: "callfun",
	OpSend: "send", OpRaise: "raise", OpTryPush: "trypush",
	OpTryPop: "trypop", OpReturn: "return",
}

// String returns the opcode mnemonic.
func (o Op) String() string {
	if o < numOps {
		return opNames[o]
	}
	return fmt.Sprintf("op%d", uint8(o))
}

// Instr is one instruction. A is usually the destination register.
type Instr struct {
	Op      Op
	A, B, C int
	Aux     int // extra operand (argument counts)
}

// Fn is a compiled code object: a channel body, fun body, global
// initializer, or initstate expression.
type Fn struct {
	Name      string
	Code      []Instr
	Consts    []value.Value
	ChanNames []string // channel names referenced by OpSend
	NumRegs   int
}

// typeEqOps selects the equality opcodes for a statically known operand
// type (the left operand's Type()).
func typeEqOps(t ast.Type) (eq, ne Op) {
	if b, ok := t.(ast.Base); ok {
		switch b.Kind {
		case ast.TInt, ast.TBool, ast.TChar, ast.THost:
			return OpEqI, OpNeI
		case ast.TString:
			return OpEqS, OpNeS
		}
	}
	return OpEqV, OpNeV
}
