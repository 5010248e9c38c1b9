"""The parameter lists of the public API, pinned.

api_signatures.json holds str(inspect.signature(f)), keyed by the module and
qualified name of f, for every callable that polynorm/__init__.py exports
(the exception types aside), for the public methods of the classes among
them, and for every public function of polynorm.checks and polynorm.norms:
each check_* function, its *_batch form and the batch forms of the norms
(lp_norms, disk_means, ...) among them. The rule is the one that
test_engine_bits.py keeps for engine bits: a change that adds or removes a
parameter re-records this pin and says in CHANGES.md which caller needs
it, so that every new option is visible in the diff.
Re-record with

    PYTHONPATH=src python tests/test_api_signatures.py > tests/api_signatures.json
"""
import inspect
import json
from pathlib import Path

import polynorm
from polynorm import checks, norms


def _signatures() -> dict:
    """str(inspect.signature(f)) by the module and qualified name of f."""
    found = [obj for name, obj in vars(polynorm).items()
             if not name.startswith("_") and callable(obj)
             and not (isinstance(obj, type) and issubclass(obj, Exception))]
    found += [getattr(cls, name) for cls in found if isinstance(cls, type)
              for name in vars(cls) if not name.startswith("_") and callable(getattr(cls, name))]
    found += [obj for module in (checks, norms) for name, obj in vars(module).items()
              if not name.startswith("_") and inspect.isfunction(obj)
              and obj.__module__ == module.__name__]
    return {f"{obj.__module__}.{obj.__qualname__}": str(inspect.signature(obj))
            for obj in found}


def test_public_signatures_are_pinned():
    expected = json.loads((Path(__file__).parent / "api_signatures.json").read_text())
    assert _signatures() == expected


if __name__ == "__main__":
    print(json.dumps(_signatures(), indent=1, sort_keys=True))
