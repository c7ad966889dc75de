"""Rewrite the asserts of the shared test helpers, which are no test module:
pytest's rewriting keeps them checked under ``python -O`` too."""

import pytest

pytest.register_assert_rewrite("helpers")
