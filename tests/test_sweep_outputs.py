"""The byte-identity sweep's report of a difference."""
from sweep_outputs import differences


def test_differences_count_every_substitution():
    """Two 120-line streams that differ by one token per line: the report
    counts every changed line and names the one substitution 120 times,
    though its diff excerpt stops at 40 lines."""
    base = "".join(f"scope S{i}/None: {i} units\n" for i in range(120))
    change = base.replace("/None:", "/overall:")
    (report,) = differences("run", {"stderr": base.encode()},
                            {"stderr": change.encode()})
    header, counts, substitution, *excerpt = report.splitlines()
    assert header == "DIFF run: stderr"
    assert counts == "120 line(s) removed, 120 added"
    assert substitution == "120× 'None' -> 'overall'"
    assert excerpt[-1] == "..."
