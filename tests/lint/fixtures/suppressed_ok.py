"""Suppression fixture: every violation below is pragma-disabled."""

import random

import numpy as np


def jitter() -> float:
    return random.random()  # reprolint: disable=RPL001


def links_list(nodes):
    return list(set(nodes))  # reprolint: disable=RPL004


def anything_goes(bucket=[]):  # reprolint: disable
    rng = np.random.default_rng()  # reprolint: disable=RPL001,RPL004
    return bucket, rng
