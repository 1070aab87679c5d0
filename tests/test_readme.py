import doctest
import pathlib

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    """The README's library quick-start block, a ``pycon`` doctest."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start") :]
    start = section.index("```pycon\n") + len("```pycon\n")
    return section[start : section.index("```", start)]


def test_readme_quick_start_runs_as_written():
    test = doctest.DocTestParser().get_doctest(_quick_start(), {}, "README quick start", str(README), 0)
    assert len(test.examples) > 10
    report = []
    result = doctest.DocTestRunner().run(test, out=report.append)
    assert result.failed == 0, "".join(report)
