package archtest

import (
	"go/ast"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	runFlag  = regexp.MustCompile(`-run[= ](?:'([^']*)'|"([^"]*)"|(\S+))`)
	pkgArg   = regexp.MustCompile(`(?:^|\s)(\./\S*)`)
	testFunc = regexp.MustCompile(`^Test[^a-z]`)
)

// ciRunPatterns: every alternative of every -run pattern in CI's go test
// steps matches a Test function in the packages the step names, so renaming
// a test cannot leave a repeated step silently running nothing.
func ciRunPatterns(t *testing.T, m *module) {
	raw, err := os.ReadFile(filepath.Join(m.root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	commands := strings.Split(strings.ReplaceAll(string(raw), "\\\n", " "), "\n")
	checked := 0
	for _, cmd := range commands {
		if !strings.Contains(cmd, "go test") {
			continue
		}
		run := runFlag.FindStringSubmatch(cmd)
		if run == nil {
			continue
		}
		pattern := run[1] + run[2] + run[3]
		if pattern == "^$" {
			continue
		}
		var names []string
		for _, arg := range pkgArg.FindAllStringSubmatch(cmd, -1) {
			dir := strings.TrimSuffix(strings.TrimPrefix(arg[1], "./"), "/")
			found := false
			for _, p := range m.pkgs {
				if p.dir == dir || dir == "..." || strings.HasSuffix(dir, "/...") && p.under(strings.TrimSuffix(dir, "/...")) {
					names = append(names, testNames(p)...)
					found = true
				}
			}
			if !found {
				t.Errorf("ci.yml: -run %q names package %s, which does not exist", pattern, arg[1])
			}
		}
		for _, alt := range strings.Split(pattern, "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("ci.yml: -run alternative %q: %v", alt, err)
				continue
			}
			checked++
			if !matchesAny(re, names) {
				t.Errorf("ci.yml: -run alternative %q matches no test in its step's packages", alt)
			}
		}
	}
	if checked == 0 {
		t.Error("ci.yml: found no -run pattern to check")
	}
}

// testNames returns the Test functions p's test files declare.
func testNames(p *pkg) []string {
	var out []string
	for _, f := range p.tests {
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && (fd.Name.Name == "Test" || testFunc.MatchString(fd.Name.Name)) {
				out = append(out, fd.Name.Name)
			}
		}
	}
	return out
}

func matchesAny(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}
