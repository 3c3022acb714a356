// Reached from the mediator root.
