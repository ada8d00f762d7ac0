"""Reverse-mode autodiff, network layers, optimizer, and context features."""
