"""The README's library example runs as written, and gives the results its comments state."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def example():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    return blocks[0]


def stated_results(block):
    """{statement: its comment} for each line of the block that comments on
    its result, a comment carried on below its line joined on."""
    pairs = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if code.strip():
            pairs.append([code.strip(), comment.strip()])
        elif comment.strip() and pairs:
            pairs[-1][1] += " " + comment.strip()
    return {code: comment for code, comment in pairs if comment}


def test_library_example_runs():
    exec(compile(example(), str(README), "exec"), {})


def test_library_example_gives_the_stated_results():
    block = example()
    stated = stated_results(block)
    namespace = {}
    exec(compile("\n".join(line for line in block.splitlines() if line.startswith(("from", "import"))),
                 str(README), "exec"), namespace)

    def result(statement, comment):
        assert stated[statement] == comment
        return eval(statement, namespace)

    assert result("oe_series(20).coefficient(9)", "3, exactly") == 3
    listing = ("(3, [OEPartition(parts=(9,)), OEPartition(parts=(8, 1)), "
               "OEPartition(parts=(6, 3))])")
    assert repr(result("enum_oe(9, listing=True)", listing)) == listing
    count = "11478515825964261613864"
    assert result("oebar_series_product(1000).coefficient(1000)", count) == int(count)
    law = result("float(oe_asymptotic(10000, prec=96))", "~ OE(10000) to 0.3%")
    exact = eval("oe_series(10000).coefficient(10000)", namespace)
    # "to 0.3%" at the one digit stated: it measures 0.307 %
    assert round(100 * abs(law / exact - 1), 1) == 0.3
    report = result("circle_report(50)", "dict: arcs, bounds, exact recovery")
    assert report["recovered_coefficient"] == report["exact_coefficient"]
