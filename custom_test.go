package hfstream

import (
	"errors"
	"strings"
	"testing"
)

// mustCompile assembles src or fails the test.
func mustCompile(t *testing.T, name, src string) *Program {
	t.Helper()
	p, err := CompileAsm(name, src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return p
}

func TestCompileAsmErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string // substring of the error
	}{
		{"unknown-mnemonic", "frobnicate r1, r2\nhalt\n", "unknown mnemonic"},
		{"bad-register", "movi r99, 1\nhalt\n", "bad register"},
		{"undefined-label", "b nowhere\nhalt\n", "undefined label"},
		{"duplicate-label", "x:\nmovi r1, 1\nx:\nhalt\n", "duplicate label"},
		{"bad-queue", "movi r1, 1\nproduce qx, r1\nhalt\n", "bad queue"},
		{"bad-memory-operand", "ld r1, oops\nhalt\n", "bad memory operand"},
		{"bad-memory-base", "ld r1, [oops+8]\nhalt\n", "bad register"},
		{"missing-operand", "add r1, r2\nhalt\n", "missing operand"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := CompileAsm(tc.name, tc.src)
			if err == nil {
				t.Fatalf("CompileAsm accepted %q", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestRunProgramsCoreCount(t *testing.T) {
	p := mustCompile(t, "p", "movi r1, 1\nhalt\n")

	if _, err := RunPrograms(Existing, nil, nil); err == nil {
		t.Error("RunPrograms accepted an empty program list")
	}

	nine := make([]*Program, 9)
	for i := range nine {
		nine[i] = p
	}
	_, err := RunPrograms(Existing, nine, nil)
	if err == nil {
		t.Fatal("RunPrograms accepted 9 programs")
	}
	var cce *CoreCountError
	if !errors.As(err, &cce) {
		t.Fatalf("error %T is not *CoreCountError", err)
	}
	if cce.Programs != 9 || cce.Max != 8 {
		t.Errorf("CoreCountError = %+v, want Programs=9 Max=8", cce)
	}
	if !strings.Contains(err.Error(), "9 programs") || !strings.Contains(err.Error(), "at most 8") {
		t.Errorf("unhelpful message %q", err)
	}
}

// Three communicating programs must run on every design that can route
// them: the routes are auto-derived from a static scan, no explicit
// configuration needed. The result must match the functional oracle.
func TestRunProgramsThreeCoreAutoRoutes(t *testing.T) {
	src0 := `
	    movi r1, 0
	    movi r2, 10
	loop:
	    addi r1, r1, 3
	    produce q0, r1
	    addi r2, r2, -1
	    bnez r2, loop
	    halt
	`
	src1 := `
	    movi r2, 10
	loop:
	    consume r1, q0
	    addi r1, r1, 100
	    produce q1, r1
	    addi r2, r2, -1
	    bnez r2, loop
	    halt
	`
	src2 := `
	    movi r2, 10
	    movi r3, 0
	loop:
	    consume r1, q1
	    add  r3, r3, r1
	    addi r2, r2, -1
	    bnez r2, loop
	    st   [r0+32768], r3
	    halt
	`
	progs := []*Program{
		mustCompile(t, "stage0", src0),
		mustCompile(t, "stage1", src1),
		mustCompile(t, "stage2", src2),
	}
	oracle, err := Interpret(progs, nil)
	if err != nil {
		t.Fatalf("Interpret: %v", err)
	}
	want := oracle(32768)
	if want == 0 {
		t.Fatal("oracle computed 0; workload is broken")
	}
	for _, d := range Designs() {
		run, err := RunPrograms(d, progs, nil)
		if err != nil {
			t.Errorf("%s: RunPrograms on 3 cores: %v", d.Name(), err)
			continue
		}
		if got := run.Read(32768); got != want {
			t.Errorf("%s: result %d, oracle %d", d.Name(), got, want)
		}
	}
}

// A lowering failure anywhere in the slice must fail the whole call up
// front, identify the offending program, and leave the inputs untouched.
func TestRunProgramsLoweringFailure(t *testing.T) {
	good := mustCompile(t, "good", `
		movi r1, 7
		st   [r0+4096], r1
		halt
	`)
	// r60 collides with the scratch registers software-queue lowering
	// claims from the top of the file.
	bad := mustCompile(t, "bad", `
		movi r60, 1
		produce q0, r60
		halt
	`)
	goodAsm, badAsm := good.Disassemble(), bad.Disassemble()

	_, err := RunPrograms(Existing, []*Program{good, bad}, nil)
	if err == nil {
		t.Fatal("RunPrograms accepted a program colliding with lowering scratch registers")
	}
	if !strings.Contains(err.Error(), "program 1") {
		t.Errorf("error %q does not name the offending slice index", err)
	}
	if good.Disassemble() != goodAsm || bad.Disassemble() != badAsm {
		t.Error("RunPrograms mutated its input programs on failure")
	}

	// The same pair is fine on a hardware-queue design (no lowering).
	if _, err := RunPrograms(HeavyWT, []*Program{good, bad}, nil); err != nil {
		t.Errorf("HEAVYWT run failed: %v", err)
	}
}

// A program control can run past the end of is a typed error from both
// RunPrograms and Interpret on every design point, never an index panic;
// ending in halt or an unconditional branch is fine.
func TestProgramEnd(t *testing.T) {
	cases := []struct {
		name, src string
		ok        bool
	}{
		{"empty", "", false},
		{"no halt", "movi r1, 1\n", false},
		{"trailing bnez", "movi r1, 3\nloop:\naddi r1, r1, -1\nbnez r1, loop\n", false},
		{"halt", "movi r1, 1\nhalt\n", true},
		{"trailing b", "movi r1, 3\nb loop\ndone:\nhalt\nloop:\naddi r1, r1, -1\nbeqz r1, done\nb loop\n", true},
	}
	for _, tc := range cases {
		progs := []*Program{mustCompile(t, "p", tc.src)}
		if _, err := Interpret(progs, nil); (err == nil) != tc.ok {
			t.Errorf("%s: Interpret error %v, want ok=%v", tc.name, err, tc.ok)
		}
		for _, d := range Designs() {
			_, err := RunPrograms(d, progs, nil)
			var ve *ValidationError
			switch {
			case tc.ok && err != nil:
				t.Errorf("%s on %s: %v", tc.name, d.Name(), err)
			case !tc.ok && (!errors.As(err, &ve) || !strings.Contains(err.Error(), "thread 0")):
				t.Errorf("%s on %s: error %v, want a ValidationError naming thread 0", tc.name, d.Name(), err)
			}
		}
	}
	// The topology scan's queue bound is a typed error too, on software-
	// queue designs as well as hardware ones.
	far := []*Program{mustCompile(t, "far", "movi r1, 1\nproduce q64, r1\nhalt\n")}
	for _, d := range Designs() {
		var ve *ValidationError
		if _, err := RunPrograms(d, far, nil); !errors.As(err, &ve) {
			t.Errorf("queue 64 on %s: error %v, want a ValidationError", d.Name(), err)
		}
	}
}

// RunPrograms must agree with the functional interpreter on every design
// point, including the extension designs DesignByName resolves.
func TestRunProgramsMatchesInterpretEverywhere(t *testing.T) {
	prod := mustCompile(t, "prod", `
		movi r1, 1
		movi r2, 50
		movi r3, 1
	loop:
		produce q0, r1
		add  r1, r1, r3
		cmplt r4, r2, r1
		beqz r4, loop
		movi r5, 0
		produce q0, r5
		halt
	`)
	cons := mustCompile(t, "cons", `
		movi r1, 0
		movi r2, 8192
	loop:
		consume r3, q0
		beqz r3, done
		add  r1, r1, r3
		b loop
	done:
		st [r2+0], r1
		halt
	`)
	init := map[uint64]uint64{8192: 0xdead}

	oracle, err := Interpret([]*Program{prod, cons}, init)
	if err != nil {
		t.Fatal(err)
	}
	want := oracle(8192)
	if want != 50*51/2 {
		t.Fatalf("oracle sum = %d, want %d", want, 50*51/2)
	}

	names := make([]string, 0, len(Designs())+3)
	for _, d := range Designs() {
		names = append(names, d.Name())
	}
	// NETQUEUE_3hop's odd hop count exercises the QLU/depth fixup.
	names = append(names, "REGMAPPED", "NETQUEUE_2hop", "NETQUEUE_3hop", "HEAVYWT_CENTRAL")
	for _, name := range names {
		d, err := DesignByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		run, err := RunPrograms(d, []*Program{prod, cons}, init)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := run.Read(8192); got != want {
			t.Errorf("%s: sum = %d, want %d", name, got, want)
		}
		if run.Cycles == 0 {
			t.Errorf("%s: zero cycles", name)
		}
	}
}

func TestDesignByNameExtensions(t *testing.T) {
	for name, want := range map[string]string{
		"REGMAPPED":       "REGMAPPED",
		"NETQUEUE_1hop":   "NETQUEUE_1hop",
		"NETQUEUE_8hop":   "NETQUEUE_8hop",
		"HEAVYWT_CENTRAL": "HEAVYWT_CENTRAL",
	} {
		d, err := DesignByName(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if d.Name() != want {
			t.Errorf("DesignByName(%q).Name() = %q", name, d.Name())
		}
	}
	for _, bad := range []string{"NETQUEUE_0hop", "NETQUEUE_xhop", "NETQUEUE_", "nope"} {
		_, err := DesignByName(bad)
		if err == nil {
			t.Errorf("DesignByName accepted %q", bad)
			continue
		}
		// The error must enumerate the valid names so callers can recover.
		for _, must := range []string{"EXISTING", "HEAVYWT", "REGMAPPED", "NETQUEUE_<h>hop", "HEAVYWT_CENTRAL"} {
			if !strings.Contains(err.Error(), must) {
				t.Errorf("DesignByName(%q) error %q omits %s", bad, err, must)
			}
		}
	}
}
