"""Text DSL for relational algebra: tokenizer and parser.

SQL rendering lives with the SQLite oracle:
:func:`repro.engine.backends.to_sql`.
"""

from repro.parser.lexer import Token, tokenize
from repro.parser.ra_parser import parse_predicate, parse_query

__all__ = [
    "Token",
    "parse_predicate",
    "parse_query",
    "tokenize",
]
