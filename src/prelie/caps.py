"""The order caps of every command and suite, and the names the command line
offers, in one table that imports nothing.

``prelie.cli`` builds its parser and checks every cap from this table alone,
so parsing argv loads no layer module; ``checks.ROUTES``, ``checks.SUITES``
and ``nc.BRANDS`` take their names and caps from it.  Each cap is the last
order that finishes within a few seconds, the next taking about three times
as long or more; the measured times are in the README.
"""

# tree orders: the trees table and series --method fixed-point
TREE_CAP = 12
# forest-formula grades: forest --index and the forest suite
FOREST_CAP = 8
# table maxlen, for a 2-variable free -> monotone conversion through moments
CUMULANT_CAP = 8
# forest --k, for the grade-8 corolla in full flavor (time and peak RSS)
K_CAP = 6

# the brands of a cumulant table: cumulants --from and --to
BRANDS = ("moment", "free", "boolean", "monotone")

# which -> method -> cap: the routes of each series that series prints
# (--which, --method), each with the last order it runs at by default
SERIES_CAPS = {
    "exp": {"closed": TREE_CAP, "fixed-point": TREE_CAP},
    # sol1 costs the most of the three, so it has a cap of its own
    "magnus": {"closed": TREE_CAP, "fixed-point": TREE_CAP, "sol1": 9},
}

# suite -> (default order, cap) of verify --suite, in the order that
# verify --suite all runs them
SUITE_CAPS = {
    "trees": (6, 10),
    "hopf": (6, 8),
    # the magnus suite runs every Magnus route
    "magnus": (6, min(SERIES_CAPS["magnus"].values())),
    "words": (5, 6),
    "forest": (5, FOREST_CAP),
    # its tables stop at length 6
    "cumulants": (6, TREE_CAP),
}
