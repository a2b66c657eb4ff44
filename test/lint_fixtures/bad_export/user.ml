let w = Widget.create ()
