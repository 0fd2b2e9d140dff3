"""Sequential recommendation with unified collaborative-semantic item
representations, scored reasoning traces, and a soft-prompt ranking head.

The package root defines no names: import each one from the module that
defines it, as in `from fusionrec.cf import train_cf`.
"""
