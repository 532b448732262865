"""Bundled grid world: dynamics, tasks, simulator, and the optimal-step solver."""
