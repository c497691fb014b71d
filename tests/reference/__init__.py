"""Reference implementations the production code must reproduce exactly.

Each module keeps the straightforward version of a computation whose
production form was rewritten for speed; parity tests compare the two
on constructed and random inputs.
"""
