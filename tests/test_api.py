"""The public API and the README library example stay in step with the package."""

import re
from pathlib import Path

import entverify
from entverify.cli import SCHEMES, scheme_record

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_resolve_and_readme_example_runs():
    assert [name for name in entverify.__all__ if not hasattr(entverify, name)] == []
    text = README.read_text()
    library = text.index("\n## Library\n")
    block = re.compile(r"```python\n(.*?)```", re.S).search(text, library)
    assert block and "\n## " not in text[library + 1:block.start()]
    # padded so that a traceback names the README's own line numbers
    exec(compile("\n" * text.count("\n", 0, block.start(1)) + block.group(1), str(README), "exec"), {})


def test_every_scheme_certifies_through_a_public_function():
    certify = {name: scheme_record(name).certify for name in SCHEMES}
    assert [name for name, f in certify.items()
            if f.__name__ not in entverify.__all__ or getattr(entverify, f.__name__) is not f] == []
