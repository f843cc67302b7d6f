"""Speed reference for the benchmark: interpreter start, the standard-library
imports clfmetrics makes, and a little fixed work. It runs no clfmetrics code,
so no change to the package can move it; run.py times it between CLI
invocations and scales its timings by it.
"""

import argparse
import csv
import dataclasses
import enum
import fractions
import json
import math
import typing

total = sum(fractions.Fraction(i, i + 1) for i in range(2000))
