package phpast_test

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/phpast"
	"repro/internal/phpparse"
)

// walkSource builds a representative plugin file in the style of the
// lexer's allocation benchmark: functions reading superglobals,
// interpolated SQL, echo sinks and a class with methods.
func walkSource() string {
	var b strings.Builder
	b.WriteString("<html><body>\n<?php\n")
	for i := 0; i < 40; i++ {
		n := strconv.Itoa(i)
		b.WriteString("function handler_" + n + "($req) {\n")
		b.WriteString("    $id = $_GET['id_" + n + "'];\n")
		b.WriteString("    $name = mysql_real_escape_string($req['name']);\n")
		b.WriteString("    $sql = \"SELECT * FROM t_" + n + " WHERE id = $id AND name = '$name'\";\n")
		b.WriteString("    if (($res = mysql_query($sql)) && count($res) > " + n + ") {\n")
		b.WriteString("        echo \"<div id='row-{$id}'>\" . htmlentities($name) . '</div>';\n")
		b.WriteString("    }\n")
		b.WriteString("    return $res;\n")
		b.WriteString("}\n")
	}
	b.WriteString("class Plugin_Widget {\n")
	b.WriteString("    var $options = array('a' => 1, 'b' => 2);\n")
	b.WriteString("    function render($attrs) {\n")
	b.WriteString("        foreach ($attrs as $k => $v) { echo $k . '=' . $v; }\n")
	b.WriteString("        return (int)$this->options['a'];\n")
	b.WriteString("    }\n")
	b.WriteString("}\n?>\n</body></html>\n")
	return b.String()
}

// TestInspectAllocsGate is the allocation gate for the AST walk: walking
// a parsed plugin file with InspectStmts must not allocate.
func TestInspectAllocsGate(t *testing.T) {
	f := phpparse.Parse("walk.php", walkSource(), phpparse.Options{})
	nodes := 0
	allocs := testing.AllocsPerRun(100, func() {
		phpast.InspectStmts(f.Stmts, func(phpast.Node) bool {
			nodes++
			return true
		})
	})
	if nodes == 0 {
		t.Fatal("walk visited no nodes")
	}
	if allocs != 0 {
		t.Fatalf("InspectStmts allocates %v times per walk, want 0", allocs)
	}
}
