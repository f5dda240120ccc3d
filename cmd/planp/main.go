// Command planp is the PLAN-P protocol tool: parse, type-check, verify,
// compile, and smoke-run ASP source files.
//
// Usage:
//
//	planp check   file.planp            parse + type-check, print channel signatures
//	planp verify  [-single] file.planp  run the §2.1 safety analyses
//	planp compile [-engine E] file.planp  compile and report code-generation time
//	planp fmt     file.planp            pretty-print the program
//	planp run     [-engine E] file.planp  run the protocol on a demo topology
//
// -engine takes the control plane's vocabulary (planprt.ParseConfig):
// jit (the default) or interp.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	planp "planp.dev/planp"
	"planp.dev/planp/internal/lang/ast"
	"planp.dev/planp/internal/lang/parser"
	"planp.dev/planp/internal/lang/verify"
	"planp.dev/planp/internal/planprt"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: planp {check|verify|compile|fmt|run} [flags] file.planp")
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "check":
		err = runCheck(args)
	case "verify":
		err = runVerify(args)
	case "compile":
		err = runCompile(args)
	case "fmt":
		err = runFmt(args)
	case "run":
		err = runDemo(args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "planp:", err)
		os.Exit(1)
	}
}

func readSource(fs *flag.FlagSet) (string, error) {
	if fs.NArg() != 1 {
		return "", fmt.Errorf("expected exactly one source file")
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return "", err
	}
	return string(data), nil
}

func runCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	fs.Parse(args)
	src, err := readSource(fs)
	if err != nil {
		return err
	}
	info, err := planp.Check(src)
	if err != nil {
		return err
	}
	fmt.Printf("ok: %d declarations (%d vals, %d funs, %d channels)\n",
		len(info.Prog.Decls), len(info.Globals), len(info.Funs), len(info.Channels))
	fmt.Printf("protocol state: %s\n", info.ProtoState)
	for _, ch := range info.Channels {
		init := ""
		if ch.Decl.InitState != nil {
			init = "  [initstate]"
		}
		fmt.Printf("channel %-12s packet %s%s\n", ch.Decl.Name, ch.Decl.PacketType(), init)
	}
	return nil
}

func runVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	single := fs.Bool("single", false, "verify for single-node deployment")
	fs.Parse(args)
	src, err := readSource(fs)
	if err != nil {
		return err
	}
	info, err := planp.Check(src)
	if err != nil {
		return err
	}
	r := verify.VerifyWith(info, verify.Options{SingleNode: *single})
	fmt.Print(r)
	if !r.AllOK() {
		return fmt.Errorf("verification failed (a privileged download would still be possible)")
	}
	return nil
}

func runCompile(args []string) error {
	fs := flag.NewFlagSet("compile", flag.ExitOnError)
	eng := fs.String("engine", "jit", "engine: jit or interp")
	fs.Parse(args)
	cfg, err := planprt.ParseConfig(*eng, "privileged")
	if err != nil {
		return err
	}
	src, err := readSource(fs)
	if err != nil {
		return err
	}
	p, err := planprt.Load(src, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("engine: %s\n", p.Compiled.EngineName())
	fmt.Printf("code generation time: %v\n", p.CodegenTime)
	fmt.Printf("late checking:\n%s", p.Verify)
	return nil
}

func runFmt(args []string) error {
	fs := flag.NewFlagSet("fmt", flag.ExitOnError)
	fs.Parse(args)
	src, err := readSource(fs)
	if err != nil {
		return err
	}
	prog, err := parser.Parse(src)
	if err != nil {
		return err
	}
	fmt.Print(ast.Print(prog))
	return nil
}

// runDemo drives the protocol on a 4-node demo topology with synthetic
// TCP and UDP traffic, printing what the protocol does.
func runDemo(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	eng := fs.String("engine", "jit", "engine: jit or interp")
	packets := fs.Int("packets", 10, "packets to inject")
	fs.Parse(args)
	cfg, err := planprt.ParseConfig(*eng, "privileged")
	if err != nil {
		return err
	}
	src, err := readSource(fs)
	if err != nil {
		return err
	}
	proto, err := planp.Compile(src,
		planp.WithEngine(cfg.Engine),
		planp.WithVerification(cfg.Verify))
	if err != nil {
		return err
	}

	net := planp.NewNetwork(planp.WithSeed(time.Now().UnixNano()%1000 + 1))
	built, err := net.Build(&planp.Topology{
		Nodes: []planp.NodeSpec{
			{Name: "a", Addr: planp.MustAddr("10.0.1.1")},
			{Name: "r", Addr: planp.MustAddr("10.0.0.254"), Forwarding: true},
			{Name: "b", Addr: planp.MustAddr("10.0.2.1")},
			{Name: "c", Addr: planp.MustAddr("10.0.2.2")},
		},
		Links: []planp.LinkSpec{
			{A: "a", B: "r", Bandwidth: 10_000_000},
			{A: "r", B: "b", Bandwidth: 10_000_000},
			{A: "r", B: "c", Bandwidth: 10_000_000},
		},
	})
	if err != nil {
		return err
	}
	a, r, b, c := built.Nodes[0], built.Nodes[1], built.Nodes[2], built.Nodes[3]

	rt, err := proto.DownloadTo(r, os.Stdout)
	if err != nil {
		return err
	}
	for _, n := range []*planp.Node{a, b, c} {
		node := n
		node.BindRaw(func(p *planp.Packet) {
			fmt.Printf("[%s] delivered: %v\n", node.Name, p)
		})
	}

	for i := 0; i < *packets; i++ {
		if i%2 == 0 {
			a.Send(planp.NewTCP(a.Addr, b.Addr, uint16(30000+i), 80, uint32(i), 0,
				[]byte(fmt.Sprintf("GET /doc%d", i))))
		} else {
			a.Send(planp.NewUDP(a.Addr, b.Addr, uint16(30000+i), 5004,
				[]byte(fmt.Sprintf("datagram %d", i))))
		}
	}
	net.Run()
	st := rt.Stats()
	fmt.Printf("\nrouter: processed=%d unmatched=%d errors=%d sent=%d delivered=%d\n",
		st.Processed, st.Unmatched, st.Errors,
		st.SentRemote, st.Delivered)
	fmt.Printf("protocol state: %s\n", rt.Instance().Proto)
	return nil
}
