package minic

import (
	"slices"
	"testing"

	"repro/internal/progs"
)

// runC compiles src and runs it natively; results are read back through the
// generated g_<name> heap symbols.
func runC(t *testing.T, src string) *progs.NativeResult {
	t.Helper()
	prog, err := Compile(t.Name(), src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := progs.RunNative(prog, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return &res
}

func heapInt(t *testing.T, res *progs.NativeResult, src, name string) uint16 {
	t.Helper()
	prog, err := Compile(t.Name(), src)
	if err != nil {
		t.Fatal(err)
	}
	v, err := progs.HeapWord(res.Machine, prog, "g_"+name)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestCompileArithmetic(t *testing.T) {
	src := `
int a;
int b;
int c;
void main() {
    a = 2 + 3 * 4;          // precedence
    b = (100 - 58) / 2;     // division
    c = 250 % 100;          // modulo
    exit();
}
`
	res := runC(t, src)
	if got := heapInt(t, res, src, "a"); got != 14 {
		t.Errorf("a = %d, want 14", got)
	}
	if got := heapInt(t, res, src, "b"); got != 21 {
		t.Errorf("b = %d, want 21", got)
	}
	if got := heapInt(t, res, src, "c"); got != 50 {
		t.Errorf("c = %d, want 50", got)
	}
}

func TestCompileControlFlow(t *testing.T) {
	src := `
int evens;
int sum;
void main() {
    int i;
    for (i = 0; i < 20; i++) {
        if (i % 2 == 0) {
            evens++;
        } else {
            sum += i;
        }
    }
    exit();
}
`
	res := runC(t, src)
	if got := heapInt(t, res, src, "evens"); got != 10 {
		t.Errorf("evens = %d, want 10", got)
	}
	if got := heapInt(t, res, src, "sum"); got != 100 {
		t.Errorf("sum = %d, want 100 (1+3+...+19)", got)
	}
}

func TestCompileWhileBreakContinue(t *testing.T) {
	src := `
int n;
void main() {
    int i = 0;
    while (1) {
        i++;
        if (i == 3) { continue; }
        if (i > 7) { break; }
        n += i;
    }
    exit();
}
`
	res := runC(t, src)
	// 1+2+4+5+6+7 = 25 (3 skipped, loop breaks at 8).
	if got := heapInt(t, res, src, "n"); got != 25 {
		t.Errorf("n = %d, want 25", got)
	}
}

func TestCompileFunctionsAndRecursion(t *testing.T) {
	src := `
int result;
int fib(int n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
void main() {
    result = fib(13);
    exit();
}
`
	res := runC(t, src)
	if got := heapInt(t, res, src, "result"); got != 233 {
		t.Errorf("fib(13) = %d, want 233", got)
	}
}

func TestCompileFourArguments(t *testing.T) {
	src := `
int out;
int mix(int a, int b, int c, int d) {
    return a * 1000 + b * 100 + c * 10 + d;
}
void main() {
    out = mix(1, 2, 3, 4);
    exit();
}
`
	res := runC(t, src)
	if got := heapInt(t, res, src, "out"); got != 1234 {
		t.Errorf("mix = %d, want 1234", got)
	}
}

func TestCompileArraysBubbleSort(t *testing.T) {
	src := `
char data[8];
int sorted;
void main() {
    int i;
    int j;
    for (i = 0; i < 8; i++) {
        data[i] = (i * 37 + 11) % 100;
    }
    for (i = 0; i < 8; i++) {
        for (j = 0; j + 1 < 8 - i; j++) {
            if (data[j] > data[j + 1]) {
                char tmp;
                tmp = data[j];
                data[j] = data[j + 1];
                data[j + 1] = tmp;
            }
        }
    }
    sorted = 1;
    for (i = 0; i + 1 < 8; i++) {
        if (data[i] > data[i + 1]) { sorted = 0; }
    }
    exit();
}
`
	res := runC(t, src)
	if got := heapInt(t, res, src, "sorted"); got != 1 {
		t.Error("bubble sort left the array unsorted")
	}
	prog, _ := Compile(t.Name(), src)
	sym, ok := prog.Lookup("g_data")
	if !ok {
		t.Fatal("no g_data symbol")
	}
	prev := -1
	for i := 0; i < 8; i++ {
		v := int(res.Machine.Peek(uint16(sym.Addr) + uint16(i)))
		if v < prev {
			t.Fatalf("data[%d]=%d out of order", i, v)
		}
		prev = v
	}
}

func TestCompileIntArrays(t *testing.T) {
	src := `
int table[5];
int sum;
void main() {
    int i;
    for (i = 0; i < 5; i++) {
        table[i] = 1000 + i * 500;   // exceeds a byte: exercises 2-byte cells
    }
    for (i = 0; i < 5; i++) {
        sum += table[i];
    }
    exit();
}
`
	res := runC(t, src)
	if got := heapInt(t, res, src, "sum"); got != 5*1000+500*(0+1+2+3+4) {
		t.Errorf("sum = %d, want %d", got, 5*1000+500*10)
	}
}

func TestCompileGlobalsWithInit(t *testing.T) {
	src := `
int base = 1234;
char step = 7;
int out;
void main() {
    out = base + step;
    exit();
}
`
	res := runC(t, src)
	if got := heapInt(t, res, src, "out"); got != 1241 {
		t.Errorf("out = %d, want 1241", got)
	}
}

func TestCompileLogicalAndShifts(t *testing.T) {
	src := `
int a;
int b;
int c;
int d;
int touched;
int touch() { touched++; return 1; }
void main() {
    a = (3 < 5) && (5 < 3);     // 0
    b = (3 < 5) || touch();     // 1, short-circuit: touch not called
    c = 1 << 10;
    d = 0x8000 >> 15;
    exit();
}
`
	res := runC(t, src)
	if got := heapInt(t, res, src, "a"); got != 0 {
		t.Errorf("a = %d, want 0", got)
	}
	if got := heapInt(t, res, src, "b"); got != 1 {
		t.Errorf("b = %d, want 1", got)
	}
	if got := heapInt(t, res, src, "touched"); got != 0 {
		t.Errorf("touched = %d; short-circuit failed", got)
	}
	if got := heapInt(t, res, src, "c"); got != 1024 {
		t.Errorf("c = %d, want 1024", got)
	}
	if got := heapInt(t, res, src, "d"); got != 1 {
		t.Errorf("d = %d, want 1", got)
	}
}

func TestCompileCharTruncation(t *testing.T) {
	src := `
char c;
int wide;
void main() {
    c = 300;        // truncates to 44
    wide = c + 0;   // zero-extends back
    exit();
}
`
	res := runC(t, src)
	if got := heapInt(t, res, src, "wide"); got != 44 {
		t.Errorf("wide = %d, want 44", got)
	}
}

func TestCompileDeviceBuiltins(t *testing.T) {
	src := `
int reading;
int t;
void main() {
    reading = adc_read();
    t = timer3();
    uart_putc('h');
    uart_putc('i');
    radio_send(0x42);
    exit();
}
`
	res := runC(t, src)
	if got := heapInt(t, res, src, "reading"); got == 0 || got > 0x3FF {
		t.Errorf("adc reading = %d, want 1..1023", got)
	}
	if got := heapInt(t, res, src, "t"); got == 0 {
		t.Error("timer3() returned 0")
	}
	res.Machine.AddCycles(20_000)
	res.Machine.FlushDevices()
	if got := string(res.Machine.UARTOutput()); got != "hi" {
		t.Errorf("uart = %q, want %q", got, "hi")
	}
	if frames := res.Machine.RadioOutput(); len(frames) != 1 || frames[0].Byte != 0x42 {
		t.Errorf("radio frames = %+v", frames)
	}
}

func TestCompileAsmEscape(t *testing.T) {
	src := `
int x;
void main() {
    asm("ldi r24, 99");
    asm("sts g_x, r24");
    exit();
}
`
	res := runC(t, src)
	if got := heapInt(t, res, src, "x"); got != 99 {
		t.Errorf("x = %d, want 99", got)
	}
}

// badPrograms are sources Compile must reject.
var badPrograms = []struct {
	name string
	src  string
}{
	{"no main", "int x;"},
	{"undefined variable", "void main() { y = 1; }"},
	{"undefined function", "void main() { frob(); }"},
	{"duplicate global", "int x; int x; void main() {}"},
	{"duplicate local", "void main() { int a; int a; }"},
	{"array without index", "char b[4]; void main() { b = 1; }"},
	{"index on scalar", "int s; void main() { s[0] = 1; }"},
	{"too many params", "void f(int a,int b,int c,int d,int e) {} void main() {}"},
	{"assign to constant", "void main() { 3 = 4; }"},
	{"break outside loop", "void main() { break; }"},
	{"bad token", "void main() { $; }"},
	{"builtin arity", "void main() { uart_putc(); }"},
	{"main with params", "void main(int x) {}"},
	{"unterminated block", "void main() {"},
}

func TestCompileErrors(t *testing.T) {
	for _, tt := range badPrograms {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Compile("bad", tt.src); err == nil {
				t.Fatalf("expected a compile error for %q", tt.src)
			}
		})
	}
}

func TestCompileErrorHasLine(t *testing.T) {
	_, err := Compile("lines", "int x;\nvoid main() {\n  y = 1;\n}\n")
	if err == nil {
		t.Fatal("expected error")
	}
	ce, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if ce.Line != 3 {
		t.Errorf("error line = %d, want 3", ce.Line)
	}
}

// TestCompileSieve is a bigger end-to-end program: a prime sieve.
func TestCompileSieve(t *testing.T) {
	src := `
char composite[50];
int primes;
void main() {
    int i;
    int j;
    for (i = 2; i < 50; i++) {
        if (!composite[i]) {
            primes++;
            for (j = i + i; j < 50; j += i) {
                composite[j] = 1;
            }
        }
    }
    exit();
}
`
	res := runC(t, src)
	// Primes below 50: 2,3,5,7,11,13,17,19,23,29,31,37,41,43,47 = 15.
	if got := heapInt(t, res, src, "primes"); got != 15 {
		t.Errorf("primes = %d, want 15", got)
	}
}

func TestCompiledProgramSizes(t *testing.T) {
	prog := MustCompile("sz", `
int x;
void main() { x = 1; exit(); }
`)
	if prog.SizeBytes() < 20 {
		t.Errorf("suspiciously small program: %d bytes", prog.SizeBytes())
	}
	if prog.Name != "sz" {
		t.Errorf("program name = %q", prog.Name)
	}
}

func TestCompileCompoundIndexAssign(t *testing.T) {
	src := `
int arr[4];
int total;
void main() {
    int i;
    for (i = 0; i < 4; i++) {
        arr[i] = i;
        arr[i] += 10;       // compound assignment through an index
        arr[i] <<= 1;
    }
    for (i = 0; i < 4; i++) {
        total += arr[i];
    }
    exit();
}
`
	res := runC(t, src)
	// arr[i] = (i+10)*2 -> 20+22+24+26 = 92.
	if got := heapInt(t, res, src, "total"); got != 92 {
		t.Errorf("total = %d, want 92", got)
	}
}

func TestCompileNestedCallsAsArguments(t *testing.T) {
	src := `
int out;
int add(int a, int b) { return a + b; }
int twice(int x) { return x + x; }
void main() {
    out = add(twice(3), add(twice(5), 1));
    exit();
}
`
	res := runC(t, src)
	if got := heapInt(t, res, src, "out"); got != 17 {
		t.Errorf("out = %d, want 17", got)
	}
}

func TestCompileUnaryOperators(t *testing.T) {
	src := `
int a;
int b;
int c;
void main() {
    a = -5 + 10;        // unary minus on a constant expression
    b = ~0 & 0xff;      // complement
    c = !0 + !7;        // logical not: 1 + 0
    exit();
}
`
	res := runC(t, src)
	if got := heapInt(t, res, src, "a"); got != 5 {
		t.Errorf("a = %d, want 5", got)
	}
	if got := heapInt(t, res, src, "b"); got != 0xFF {
		t.Errorf("b = %d, want 255", got)
	}
	if got := heapInt(t, res, src, "c"); got != 1 {
		t.Errorf("c = %d, want 1", got)
	}
}

// FuzzCompile feeds the compiler arbitrary source. It must reject what it
// cannot compile with an error, never a panic, and compile the rest the same
// way every time.
func FuzzCompile(f *testing.F) {
	for _, tt := range badPrograms {
		f.Add(tt.src)
	}
	f.Add("int a; void main() { a = 2 + 3 * 4; exit(); }")
	f.Add("char b[4]; void main() { int i; i = 0; while (i < 4) { b[i] = i; i = i + 1; } }")
	f.Add("int f(int n) { if (n < 2) return n; return f(n-1) + f(n-2); } int r; void main() { r = f(5); }")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Compile("fuzz", src)
		if err != nil {
			return
		}
		again, err := Compile("fuzz", src)
		if err != nil || !slices.Equal(again.Words, p.Words) || again.Entry != p.Entry {
			t.Fatalf("compiling %q twice disagrees (%v)", src, err)
		}
	})
}
